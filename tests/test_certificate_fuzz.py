"""Property tests: certificates decide ideal-power membership without
multiplying out ideal powers.

ord_in(f, I, cap=k) >= k, the membership test of the certificate layer,
must agree with f in I^k read off the multiplied-out power, in one to four
variables, for the zero polynomial, the unit and zero ideals and multi-term
f.  construct_from_igt must return the certificate of the SparsePoly
recursion over products of coefficients and powers (tests/oracles.py) for
random multi-term elements of I_> in one to three variables.  search_at at
q = 0 must find a certificate exactly when every term of h is divisible by
a generator, and then return a_1 = -h.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from subintegral import (
    BudgetExceeded,
    MonomialIdeal,
    construct_from_igt,
    i_greater,
    search_at,
    verify,
)
from subintegral.ideals import ord_in
from subintegral.poly import SparsePoly

from oracles import construct_by_poly_recursion, in_power_by_product

SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


def exponents(nvars, top):
    return st.tuples(*[st.integers(0, top)] * nvars)


@st.composite
def power_cases(draw):
    """(f, I, k): an ideal with one to four generators (sometimes the unit
    or the zero ideal), 1 <= k <= 8, and f with up to four terms.  Each term
    is a product of up to nine generators times a small monomial, so that
    it lies in I^k about as often as not."""
    nvars = draw(st.integers(1, 4))
    gens = draw(st.lists(exponents(nvars, 3), min_size=1, max_size=4))
    kind = draw(st.sampled_from(["random"] * 4 + ["unit", "zero"]))
    if kind == "unit":
        ideal = MonomialIdeal.unit(nvars)
    elif kind == "zero":
        ideal = MonomialIdeal.zero(nvars)
    else:
        ideal = MonomialIdeal(nvars, gens)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        factors = draw(st.lists(st.sampled_from(gens), max_size=9))
        exp = tuple(map(sum, zip(draw(exponents(nvars, 2)), *factors)))
        terms[exp] = draw(st.sampled_from([1, -1, 2, 3]))
    return SparsePoly(nvars, terms), ideal, draw(st.integers(1, 8))


@SETTINGS
@hypothesis.given(power_cases())
def test_ord_in_decides_power_membership(case):
    f, ideal, k = case
    assert (ord_in(f, ideal, cap=k) >= k) == in_power_by_product(f, ideal, k)


@st.composite
def igt_elements(draw):
    """(a, I): I has the pure powers x_i^(d_i), 1 <= d_i <= 4, and up to
    one more nonunit generator; a is a sum of one to three terms, each an I_>
    generator times a monomial with exponents <= 1, so a lies in I_>."""
    nvars = draw(st.integers(1, 3))
    degrees = draw(st.tuples(*[st.integers(1, 4)] * nvars))
    gens = [tuple(d * (j == i) for j in range(nvars)) for i, d in enumerate(degrees)]
    gens += draw(st.lists(exponents(nvars, 3).filter(any), max_size=1))
    ideal = MonomialIdeal(nvars, gens)
    above = i_greater(ideal).gens
    a = SparsePoly.zero(nvars)
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(above))
        shift = draw(exponents(nvars, 1))
        coeff = draw(st.sampled_from([1, -1, 2, 3, -5]))
        a = a + SparsePoly.monomial(tuple(map(sum, zip(g, shift))), coeff)
    return a, ideal


def outcome(build, a, ideal):
    try:
        return build(a, ideal, q_max=6)
    except BudgetExceeded as exc:
        return str(exc)


@SETTINGS
@hypothesis.given(igt_elements())
def test_construct_matches_poly_recursion(case):
    a, ideal = case
    got = outcome(construct_from_igt, a, ideal)
    assert got == outcome(construct_by_poly_recursion, a, ideal)
    if not isinstance(got, str):
        assert verify(a, got, ideal)


def test_q0_search_is_ideal_membership():
    # The draws must reach h = 0, the zero ideal, and both outcomes.
    kinds = set()

    @SETTINGS
    @hypothesis.given(power_cases())
    def check(case):
        h, ideal, _ = case
        divisible = all(
            any(all(a >= b for a, b in zip(exp, g)) for g in ideal.gens)
            for exp, _ in h.items()
        )
        found = search_at(h, ideal, 0)
        assert (found is not None) == divisible
        if found is not None:
            assert found.coeffs == (-h,) and verify(h, found, ideal)
        kinds.add(divisible)
        if h.is_zero:
            kinds.add("zero h")
        if ideal.is_zero:
            kinds.add("zero ideal")

    check()
    assert kinds == {True, False, "zero h", "zero ideal"}
