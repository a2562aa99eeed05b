"""Weak-subintegrality certificates: verification, construction, search."""

import random

import pytest

from subintegral import (
    BudgetExceeded,
    MonomialIdeal,
    PreconditionError,
    RRSSystem,
    bounded_search,
    construct_from_igt,
    derivative_chain_check,
    i_greater,
    in_i_greater,
    search_at,
    verify,
    verify_failure,
    window_equations,
)
from subintegral.linalg import Echelon
from subintegral.poly import SparsePoly

from oracles import random_igt_element, random_monomial_ideal


def ideal(*exps):
    return MonomialIdeal(len(exps[0]), exps)


def mono(*exp):
    return SparsePoly.monomial(tuple(exp))


WEIGHTED = ideal((2, 0), (1, 2), (0, 3))
CORNER = ideal((2, 0), (0, 2))


class TestVerify:
    def test_first_power_element(self):
        h = mono(1, 2)  # x*y^2 is a generator
        system = RRSSystem(q=0, coeffs=(-h,))
        assert verify(h, system, WEIGHTED)

    def test_constructed_system_verifies(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        assert verify(a, system, WEIGHTED)

    def test_identities_hold_under_evaluation(self):
        # Dual route: evaluate every window identity at rational points
        # instead of expanding polynomials.
        from fractions import Fraction
        from math import comb

        a = mono(2, 1) + 3 * mono(1, 2)
        system = construct_from_igt(a, WEIGHTED)
        points = [(1, 1), (2, -1), (Fraction(1, 2), 3), (-2, Fraction(2, 3))]
        for pt in points:
            hv = a.evaluate(pt)
            for n in system.window:
                total = hv**n
                for i in range(1, n + 1):
                    total += comb(n, i) * system.coeffs[i - 1].evaluate(pt) * hv ** (n - i)
                assert total == 0

    def test_perturbed_coefficient_fails(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        tampered = list(system.coeffs)
        tampered[system.q] = tampered[system.q] + SparsePoly.constant(2, 1)
        bad = RRSSystem(q=system.q, coeffs=tuple(tampered))
        assert not verify(a, bad, WEIGHTED)
        assert verify_failure(a, bad, WEIGHTED) is not None


class TestConstruct:
    def test_weighted_example(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        assert system.q == 2
        assert derivative_chain_check(system)

    def test_element_of_ideal_with_big_vbar(self):
        a = mono(3, 0)  # x^3 over (x^2, y^2): value 3/2 > 1
        system = construct_from_igt(a, CORNER)
        assert verify(a, system, CORNER)

    def test_precondition_rejected(self):
        with pytest.raises(PreconditionError):
            construct_from_igt(mono(1, 1), CORNER)

    def test_budget_error_reported(self):
        a = mono(2, 1)
        with pytest.raises(BudgetExceeded):
            construct_from_igt(a, WEIGHTED, q_max=1)

    def test_coefficients_one_power_better(self):
        rng = random.Random(3)
        for _ in range(10):
            I = random_monomial_ideal(rng, 2, max_exp=3)
            a = random_igt_element(rng, i_greater(I))
            if not in_i_greater(a, I):
                continue
            system = construct_from_igt(a, I)
            for i, c in enumerate(system.coeffs, start=1):
                if not c.is_zero:
                    assert I.power(i + 1).contains(c)


class TestBoundedSearch:
    def test_ideal_element_found_at_zero(self):
        h = mono(1, 2) + 3 * mono(2, 0)
        system = bounded_search(h, WEIGHTED, q_max=2)
        assert system is not None and system.q == 0

    def test_search_bounded_by_constructive_q(self):
        a = mono(1, 2) * mono(1, 0)  # x^2 y^2: above the facet
        assert in_i_greater(a, WEIGHTED)
        constructive = construct_from_igt(a, WEIGHTED)
        found = bounded_search(a, WEIGHTED, q_max=constructive.q)
        assert found is not None and found.q <= constructive.q

    def test_search_inserts_only_the_rhs_block(self, monkeypatch):
        # At q = 1 the system of h = x^3*y^3 over (x^4, y^4) has 682
        # equations; only the block holding -h^n has a nonzero right-hand
        # side, and its 2 equations are all that the solve eliminates.
        inserted = []
        add_row = Echelon.add_row

        def spy(self, row):
            inserted.append(row)
            return add_row(self, row)

        monkeypatch.setattr(Echelon, "add_row", spy)
        h, I = mono(3, 3), ideal((4, 0), (0, 4))
        system = search_at(h, I, 1, 12)
        monkeypatch.undo()
        assert system is not None and verify(h, system, I)
        assert len(inserted) == 2

    def test_not_found_is_inconclusive_value(self):
        assert bounded_search(mono(1, 1), CORNER, q_max=4) is None

    def test_found_system_always_verifies(self):
        rng = random.Random(9)
        for _ in range(6):
            I = random_monomial_ideal(rng, 2, max_exp=2)
            a = random_igt_element(rng, i_greater(I))
            system = bounded_search(a, I, q_max=3)
            if system is not None:
                assert verify(a, system, I)

    def test_monotone_in_q_on_certificate_corpus(self):
        rng = random.Random(15)
        checked = 0
        while checked < 5:
            I = random_monomial_ideal(rng, 2, max_exp=2)
            a = random_igt_element(rng, i_greater(I))
            slack = 2 * max(a.total_degree(), 1)
            found_q = None
            for q in range(4):
                if search_at(a, I, q, slack) is not None:
                    found_q = q
                    break
            if found_q is None or found_q >= 3:
                continue
            checked += 1
            assert search_at(a, I, found_q + 1, slack) is not None


class TestDerivativeChain:
    def test_well_formed_system_passes(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        assert derivative_chain_check(window_equations(system))

    def test_tampered_single_equation_fails(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        polys = window_equations(system)
        assert len(polys) >= 2
        tampered = [list(p) for p in polys]
        # Change one coefficient in just one equation: the chain must break.
        # (The constant term of the lowest window equation feeds the right
        # side of the first derivative comparison.)
        tampered[0][0] = tampered[0][0] + SparsePoly.constant(2, 1)
        assert not derivative_chain_check([tuple(p) for p in tampered])

    def test_single_equation_window_is_vacuous(self):
        h = mono(1, 0)
        system = RRSSystem(q=0, coeffs=(-h,))
        assert derivative_chain_check(system)
