"""Property tests: the parser reads each term as c*x^e without polynomial
arithmetic.

Random sums of products are printed as program text, with integer and p/q
factors anywhere in a product, variables repeated inside one term, zero
factors and terms that cancel, in one to five variables.  The parsed
polynomial must equal the same sum multiplied out with SparsePoly
arithmetic (tests/oracles.py).  Parsing whole programs must not reach
SparsePoly products or sums at all.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from subintegral.ideals import MonomialIdeal
from subintegral.parser import parse, parse_ideal_text, parse_poly_text
from subintegral.poly import SparsePoly
from subintegral.reductions import PolyIdeal

from oracles import multiply_out

SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)
NAMES = ("x", "y2", "zeta", "w", "v_1")


@st.composite
def factor(draw, nvars):
    """A rational constant p or p/q, or a variable power (index, exponent)."""
    if draw(st.booleans()):
        num = draw(st.integers(0, 12))
        den = draw(st.sampled_from([None, 1, 2, 3, 7]))
        return Fraction(num) if den is None else Fraction(num, den)
    return (draw(st.integers(0, nvars - 1)), draw(st.sampled_from([None, 0, 1, 2, 5])))


def factor_text(f, names):
    if isinstance(f, tuple):
        i, e = f
        return names[i] if e is None else f"{names[i]}^{e}"
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def factor_value(f):
    """The oracle's factor: x_i^1 where the text writes a bare name."""
    if isinstance(f, tuple):
        return (f[0], 1 if f[1] is None else f[1])
    return f


@st.composite
def term_list(draw, n):
    """Up to six signed products of one to five factors; some products come
    back reordered with the opposite sign."""
    products = st.lists(factor(n), min_size=1, max_size=5)
    terms = draw(st.lists(st.tuples(st.sampled_from([1, -1]), products), min_size=1, max_size=6))
    for sign, factors in draw(st.lists(st.sampled_from(terms), max_size=2)):
        terms.append((-sign, draw(st.permutations(factors))))
    return terms


def sums(min_size, max_size):
    """(nvars, term lists) in one to five variables."""
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(term_list(n), min_size=min_size, max_size=max_size))
    )


def poly_text(terms, names):
    out = ""
    for k, (sign, factors) in enumerate(terms):
        body = "*".join(factor_text(f, names) for f in factors)
        if k == 0:
            out = body if sign > 0 else "-" + body
        else:
            out += (" + " if sign > 0 else " - ") + body
    return out


def oracle(n, terms):
    return multiply_out(n, [(sign, [factor_value(f) for f in fs]) for sign, fs in terms])


@SETTINGS
@hypothesis.given(sums(1, 1))
def test_parsed_sum_matches_multiplied_out_sum(case):
    n, (terms,) = case
    parsed = parse_poly_text(poly_text(terms, NAMES[:n]), NAMES[:n])
    expected = oracle(n, terms)
    assert parsed == expected
    # Like terms meet in the same order, so later stages iterate alike.
    assert list(parsed.items()) == list(expected.items())
    # The parsed terms are clean: every coefficient a nonzero Fraction.
    assert all(type(c) is Fraction and c != 0 for _, c in parsed.items())


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(sums(1, 4))
def test_ideal_literal_matches_multiplied_out_generators(case):
    n, term_lists = case
    text = "(" + ", ".join(poly_text(terms, NAMES[:n]) for terms in term_lists) + ")"
    parsed = parse_ideal_text(text, NAMES[:n])
    gens = [g for g in (oracle(n, terms) for terms in term_lists) if not g.is_zero]
    if all(g.is_monomial() for g in gens):
        assert parsed == MonomialIdeal(n, [g.exponents()[0] for g in gens])
    else:
        assert parsed == PolyIdeal(n, tuple(gens))


PROGRAMS = [
    "ring QQ[x,y]; relclose (x*y^2 - x*y + 1/2*y^2) in (x^2, y^3)",
    "ring QQ[x,y,z]; relclose (x*y*2*z*1/3 - 1/3*z*y*x + y*x*z) in (x^2, y^2, z^2)",
    "ring QQ[x,y]; ideal I = (x^3, x*y, y^3); relclose (x^2 - y^2) in I",
    "ring QQ[x,y]; iclose (2*x^4, -x*y^2, 3/2*y^5, x*y - y*x)",
    "ring QQ[a,b,c,d,e]; iclose (a^2, b^2, c^2, d^2, e^3, a*b*c)",
    "ring QQ[x,y]; reduction (x^2 + x*y, y^2) in (x^2, x*y, y^2)",
]


@pytest.mark.parametrize("program", PROGRAMS)
def test_parsing_does_no_polynomial_arithmetic(program, monkeypatch):
    def refuse(*args):
        raise AssertionError("the parser reached SparsePoly arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__"):
        monkeypatch.setattr(SparsePoly, name, refuse)
    assert parse(program)
