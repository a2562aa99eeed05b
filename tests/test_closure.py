"""Asymptotic Samuel values, integral closure, and i_greater."""

import math
import random
from fractions import Fraction

import pytest

from subintegral import (
    MonomialIdeal,
    UnsupportedIdeal,
    construct_from_igt,
    i_greater,
    in_i_greater,
    in_integral_closure,
    integral_closure,
    ord_in,
    rees_valuations,
    vbar,
)
from subintegral.poly import SparsePoly

from subintegral.reductions import igt_truncation_order

from oracles import random_monomial, random_monomial_ideal


def ideal(*exps):
    return MonomialIdeal(len(exps[0]), exps)


def mono(*exp):
    return SparsePoly.monomial(tuple(exp))


WEIGHTED = ideal((2, 0), (1, 2), (0, 3))


class TestVbar:
    def test_values_from_facet_data(self):
        assert vbar(mono(1, 1), WEIGHTED) == Fraction(5, 6)
        assert vbar(mono(2, 1), WEIGHTED) == Fraction(4, 3)
        assert vbar(SparsePoly.constant(2, 1), WEIGHTED) == 0
        assert vbar(SparsePoly.zero(2), WEIGHTED) == math.inf

    def test_limit_of_ord_quotients(self):
        rng = random.Random(23)
        for _ in range(8):
            I = random_monomial_ideal(rng, 2, max_exp=3)
            a = random_monomial(rng, 2, max_exp=4)
            if a.total_degree() == 0:
                continue
            value = vbar(a, I)
            slack = max(v.value_on_ideal for v in rees_valuations(I))
            m = 16
            approx = Fraction(int(ord_in(a**m, I, cap=256)), m)
            assert approx <= value
            assert value - approx <= Fraction(slack, m)

    def test_rejects_infinite_colength(self):
        with pytest.raises(UnsupportedIdeal):
            vbar(mono(1, 1), ideal((2, 0),))

    def test_scaling_in_powers(self):
        rng = random.Random(29)
        for _ in range(10):
            I = random_monomial_ideal(rng, 2, max_exp=3)
            f = random_monomial(rng, 2, max_exp=4)
            base = vbar(f, I)
            for k in range(2, 5):
                assert vbar(f, I.power(k)) == base / k


class TestIntegralClosure:
    def test_corner_square(self):
        assert integral_closure(ideal((2, 0), (0, 2))) == ideal(
            (2, 0), (1, 1), (0, 2)
        )

    def test_already_closed(self):
        assert integral_closure(WEIGHTED) == WEIGHTED

    def test_maximal_ideal(self):
        m = MonomialIdeal.maximal(2)
        assert integral_closure(m) == m

    def test_closure_is_idempotent(self):
        rng = random.Random(31)
        for _ in range(15):
            I = random_monomial_ideal(rng, rng.choice([2, 3]), max_exp=4)
            closed = integral_closure(I)
            assert integral_closure(closed) == closed
            assert closed.contains_ideal(I)


class TestIGreater:
    def test_corner_square_gives_cube(self):
        assert i_greater(ideal((2, 0), (0, 2))) == MonomialIdeal.maximal(2).power(3)

    def test_weighted_staircase(self):
        assert i_greater(WEIGHTED) == ideal((3, 0), (2, 1), (1, 2), (0, 4))

    def test_degree_two_corner(self):
        assert i_greater(ideal((2, 0), (1, 1), (0, 2))) == ideal(
            (3, 0), (2, 1), (1, 2), (0, 3)
        )

    def test_sandwich(self):
        rng = random.Random(37)
        for _ in range(15):
            I = random_monomial_ideal(rng, rng.choice([2, 3]), max_exp=4)
            closed = integral_closure(I)
            igt = i_greater(I)
            assert closed.contains_ideal(igt)
            assert closed.contains_ideal(I + igt)

    def test_invariant_under_same_closure(self):
        # The vertex subideal has the same Newton polyhedron, hence the
        # same integral closure and the same i_greater.
        from subintegral import newton_polyhedron

        rng = random.Random(41)
        for _ in range(15):
            I = random_monomial_ideal(rng, 2, max_exp=5)
            J = MonomialIdeal(2, newton_polyhedron(I).vertices)
            assert integral_closure(J) == integral_closure(I)
            assert i_greater(J) == i_greater(I)


class TestStaircaseWalk:
    @pytest.mark.parametrize(
        "I",
        [
            ideal((9, 0), (4, 2), (1, 5), (0, 7)),
            ideal((6, 0, 0), (0, 5, 0), (0, 0, 4), (1, 1, 1)),
        ],
        ids=["2 variables", "3 variables"],
    )
    def test_no_point_membership_tests(self, I, monkeypatch):
        """The walk reads facets and generators only: a point-by-point box
        scan would call contains_exponent."""

        def walk():
            return (
                integral_closure(I), i_greater(I), I.colength(), igt_truncation_order(I)
            )

        expected = walk()

        def scan(self, exponent):
            raise AssertionError("box scan: contains_exponent was called")

        monkeypatch.setattr(MonomialIdeal, "contains_exponent", scan)
        assert walk() == expected


class TestElementwise:
    def test_polynomial_in_i_greater(self):
        f = mono(3, 0) + 7 * mono(2, 1)
        assert in_i_greater(f, WEIGHTED)

    def test_generator_on_facet_excluded(self):
        assert not in_i_greater(mono(2, 0), WEIGHTED)

    def test_zero_everywhere(self):
        assert in_integral_closure(SparsePoly.zero(2), WEIGHTED)
        assert in_i_greater(SparsePoly.zero(2), WEIGHTED)

    def test_window_membership_after_certificate(self):
        # Elements above every facet satisfy a^n in I^(n+1) through the
        # certificate window and one step beyond.
        rng = random.Random(43)
        cases = 0
        while cases < 6:
            I = random_monomial_ideal(rng, 2, max_exp=3)
            a = random_monomial(rng, 2, max_exp=4)
            if not in_i_greater(a, I):
                continue
            cases += 1
            system = construct_from_igt(a, I)
            q = system.q
            for n in range(q + 1, 2 * q + 3):
                assert I.power(n + 1).contains(a**n)
