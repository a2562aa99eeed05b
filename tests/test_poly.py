"""Sparse polynomial arithmetic basics."""

import random
from fractions import Fraction

import pytest

from subintegral.poly import SparsePoly, monomial_string

from oracles import monomial_string_via_poly


def mono(*exp):
    return SparsePoly.monomial(tuple(exp))


def test_zero_and_constant():
    z = SparsePoly.zero(2)
    assert z.is_zero
    assert z.total_degree() == -1
    one = SparsePoly.constant(2, 1)
    assert (z + one) == one
    assert (one - one).is_zero


def test_addition_cancels_terms():
    p = mono(2, 0) + mono(1, 1)
    q = -mono(1, 1) + mono(0, 2)
    assert (p + q) == mono(2, 0) + mono(0, 2)


def test_product_and_power():
    x, y = mono(1, 0), mono(0, 1)
    square = (x + y) ** 2
    assert square == mono(2, 0) + 2 * mono(1, 1) + mono(0, 2)
    assert (x * y).total_degree() == 2
    assert (x + y) ** 0 == SparsePoly.constant(2, 1)


def test_scalar_arithmetic():
    x = mono(1, 0)
    assert (Fraction(3, 2) * x).coefficient((1, 0)) == Fraction(3, 2)
    assert (x * 0).is_zero


def test_evaluate():
    p = mono(2, 0) - mono(0, 2)
    assert p.evaluate([3, 1]) == 8
    assert p.evaluate([Fraction(1, 2), Fraction(1, 2)]) == 0


def test_compose_into_univariate():
    p = mono(2, 0) - mono(0, 2)  # x^2 - y^2
    t = SparsePoly.monomial((1,))
    image = p.compose([t, t + t * t])  # x -> t, y -> t + t^2
    assert image == SparsePoly(1, {(3,): Fraction(-2), (4,): Fraction(-1)})


def test_derivative():
    p = mono(3, 1)
    assert p.derivative(0) == 3 * mono(2, 1)
    assert p.derivative(1) == mono(3, 0)
    assert SparsePoly.constant(2, 5).derivative(0).is_zero


def test_to_string_canonical():
    p = mono(2, 0) + Fraction(-3, 2) * mono(0, 1) + SparsePoly.constant(2, 1)
    assert p.to_string() == "x^2 - 3/2*y + 1"
    assert SparsePoly.zero(2).to_string() == "0"


def test_mixed_nvars_rejected():
    with pytest.raises(ValueError):
        mono(1, 0) + SparsePoly.monomial((1,))


def test_bad_exponent_rejected_even_with_zero_coefficient():
    for terms in ({(1,): 0, (-1, 5, 7): 0}, {(1,): 1}, {(1, -1): 0}):
        with pytest.raises(ValueError):
            SparsePoly(2, terms)
    assert SparsePoly(2, {(1, 0): 0, (0, 1): Fraction(1, 2)}) == Fraction(1, 2) * mono(0, 1)


def test_arithmetic_results_are_clean():
    """Sums, products, negations and derivatives skip the validating
    constructor; their terms must still pass it unchanged."""
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        p, q = (
            SparsePoly(n, {
                tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            })
            for _ in range(2)
        )
        for r in (p + q, p - q, p * q, -p, p * 2, p.derivative(0), p.compose([q] * n)):
            assert all(type(c) is Fraction and c != 0 for _, c in r.items())
            assert SparsePoly(r.nvars, dict(r.items())) == r


def test_monomial_string_matches_one_term_poly():
    """Default names (x, y, z, w up to four variables, then x1, x2, ...) and
    given names, the unit exponent included."""
    rng = random.Random(5)
    for n in range(1, 7):
        exps = [(0,) * n] + [tuple(rng.choice([0, 0, 1, 2, 11]) for _ in range(n)) for _ in range(30)]
        for names in (None, tuple(f"v{i}" for i in range(n))):
            for e in exps:
                assert monomial_string(e, names) == monomial_string_via_poly(e, names)
    assert monomial_string((0, 0, 0)) == "1"
    assert monomial_string((1, 0, 0, 0, 2)) == "x1*x5^2"
