"""Weak-subintegrality certificates: verification, construction, search."""

import contextlib
import io
import json
import random
import time

import pytest

from subintegral import (
    BudgetExceeded,
    DimensionMismatch,
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
from subintegral import ideals, rrs
from subintegral.cli import main
from subintegral.linalg import Echelon
from subintegral.poly import SparsePoly

from oracles import least_window_by_branch_and_bound, random_igt_element, random_monomial_ideal


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


class TestVerifyMessages:
    """verify_failure names the first failure as it did when it multiplied
    out every ideal power."""

    def test_perturbed_coefficient(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        tampered = list(system.coeffs)
        tampered[system.q + 1] = tampered[system.q + 1] + mono(3, 3)
        bad = RRSSystem(q=system.q, coeffs=tuple(tampered))
        assert verify_failure(a, bad, WEIGHTED) == "identity of degree 4 does not vanish"

    def test_top_coefficient_one_power_short(self):
        # x*y over (x^2, y^2) at q = 1: the window identities hold and
        # a_2 = -x^2*y^2 lies in I^2, but a_3 = 2*x^3*y^3 lies in I^2 and
        # not in I^3; so does one term of a_3 for the two-term h.
        h = mono(1, 1)
        system = RRSSystem(q=1, coeffs=(SparsePoly.zero(2), -(h**2), 2 * h**3))
        assert verify_failure(h, system, CORNER) == (
            "coefficient a_3 is not in the 3-th ideal power"
        )
        two_terms = mono(1, 1) + mono(2, 1)
        system = RRSSystem(
            q=1, coeffs=(SparsePoly.zero(2), -(two_terms**2), 2 * two_terms**3)
        )
        assert verify_failure(two_terms, system, CORNER) == (
            "coefficient a_3 is not in the 3-th ideal power"
        )

    def test_wrong_q(self):
        a = mono(2, 1)
        system = construct_from_igt(a, WEIGHTED)
        zero = SparsePoly.zero(2)
        shorter = RRSSystem(q=system.q - 1, coeffs=system.coeffs[:-2])
        longer = RRSSystem(q=system.q + 1, coeffs=system.coeffs + (zero, zero))
        assert verify_failure(a, shorter, WEIGHTED) == "identity of degree 2 does not vanish"
        assert verify_failure(a, longer, WEIGHTED) == "identity of degree 6 does not vanish"


# Elements of I_> in two to four variables, with q from 0 to 12.  For
# x^2*y^2 over (x^3, y^3) the scan fails at n = 1, 2 and 4: a^3 lies in
# I^4, but a^4 = x^8*y^8 not in I^5.
IGT_CASES = [
    (mono(4, 0), CORNER),
    (mono(2, 1), WEIGHTED),
    (mono(2, 2), ideal((3, 0), (0, 3))),
    (mono(3, 0) + 2 * mono(1, 2), CORNER),
    (mono(2, 2, 2), ideal((5, 0, 0), (0, 5, 0), (0, 0, 5))),
    (3 * mono(1, 2, 1), ideal((3, 0, 0), (0, 3, 0), (0, 0, 2))),
    (mono(3, 2, 2), ideal((6, 0, 0), (0, 6, 0), (0, 0, 5), (1, 1, 3))),
    (mono(1, 1, 1, 2) + mono(2, 1, 1, 1), ideal(*[tuple(3 * (i == j) for j in range(4)) for i in range(4)])),
]


class TestWorkGuards:
    def test_no_ideal_power_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an ideal power was multiplied out")

        monkeypatch.setattr(MonomialIdeal, "power", refuse)
        monkeypatch.setattr(MonomialIdeal, "__mul__", refuse)
        for a, I in IGT_CASES:
            system = construct_from_igt(a, I)
            assert verify_failure(a, system, I) is None

    def test_search_builds_each_power_by_one_product(self, monkeypatch):
        products = []
        original = MonomialIdeal.__mul__

        def counted(a, b):
            products.append(b)
            return original(a, b)

        def refuse(*args):
            raise AssertionError("search_at called MonomialIdeal.power")

        monkeypatch.setattr(MonomialIdeal, "__mul__", counted)
        monkeypatch.setattr(MonomialIdeal, "power", refuse)
        h, I = mono(3, 3), ideal((4, 0), (0, 4))
        for q in range(3):
            products.clear()
            search_at(h, I, q)
            assert len(products) == 2 * q
            assert all(b is I for b in products)

    def test_bounded_search_builds_each_power_once(self, monkeypatch):
        # Up to q_max = 4 the search needs I, ..., I^9: 8 products in all,
        # where building the powers afresh for each q takes 0 + 2 + ... + 8.
        products = []
        original = MonomialIdeal.__mul__

        def counted(a, b):
            products.append(b)
            return original(a, b)

        monkeypatch.setattr(MonomialIdeal, "__mul__", counted)
        I = ideal((2, 0), (0, 2))
        assert bounded_search(mono(1, 1), I, q_max=4) is None
        assert len(products) == 8
        assert all(b is I for b in products)

    @pytest.mark.parametrize(
        "h, I",
        [
            (mono(2, 2), ideal((3, 0), (1, 3), (0, 4))),
            (mono(4, 3), ideal((5, 0), (0, 5))),
            (mono(2, 0) + mono(1, 3), ideal((2, 0), (0, 4))),
            (mono(2, 3), ideal((4, 0), (0, 5))),
            (mono(3, 1), ideal((5, 0), (0, 2))),
        ],
    )
    def test_shared_powers_give_the_same_certificate(self, h, I):
        # Found at q = 1 or 2, after the lower q have built the powers.
        found = bounded_search(h, I, q_max=3)
        assert found is not None and found.q >= 1
        assert found == search_at(h, I, found.q)

    def test_q0_solves_nothing(self, monkeypatch):
        # At q = 0 the window is h + a_1 = 0: a_1 = -h, found iff h is in I.
        def refuse(*args):
            raise AssertionError("search_at called solve_sparse at q = 0")

        monkeypatch.setattr(rrs, "solve_sparse", refuse)
        h = mono(1, 2) - 3 * mono(4, 0)
        assert search_at(h, WEIGHTED, 0).coeffs == (-h,)
        assert search_at(h + mono(1, 1), WEIGHTED, 0) is None

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_mixed_rings_are_an_error(self, q):
        # Not a "not found": h over three variables has no certificate
        # over a two-variable ideal at any q.
        with pytest.raises(DimensionMismatch):
            search_at(SparsePoly.monomial((1, 1, 1)), CORNER, q)

    def test_q0_candidate_is_still_verified(self, monkeypatch):
        monkeypatch.setattr(rrs, "verify_failure", lambda *args: "forced failure")
        with pytest.raises(AssertionError, match="forced failure"):
            search_at(mono(1, 2), WEIGHTED, 0)

    def test_each_window_exponent_tested_once(self, monkeypatch):
        calls = []

        def counting(f, ideal, cap=64):
            calls.append(cap)
            return ideals.ord_in(f, ideal, cap)

        monkeypatch.setattr(rrs, "ord_in", counting)
        for a, I in IGT_CASES:
            calls.clear()
            system = construct_from_igt(a, I)
            assert 0 < len(calls) <= 2 * system.q + 2


def test_large_window_certifies_quickly():
    # q = 24 in four variables: the window reaches a^49 in I^50, which
    # multiplied out has tens of thousands of generators.
    program = "ring QQ[x,y,z,w]; rrs certify (x^2*y^2*z^2*w^2) in (x^7, y^7, z^7, w^7)"
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "-c", program])
    assert time.perf_counter() - start < 5.0
    report = json.loads(out.getvalue())
    assert code == 0
    assert report["result"]["verified"] and report["result"]["derivative_chain"]
    I = MonomialIdeal(4, [tuple(7 * (i == j) for j in range(4)) for i in range(4)])
    q = least_window_by_branch_and_bound(mono(2, 2, 2, 2), I, 32)
    assert report["result"]["q"] == q == 24


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
        system = search_at(h, I, 1)
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
            found_q = None
            for q in range(4):
                if search_at(a, I, q) is not None:
                    found_q = q
                    break
            if found_q is None or found_q >= 3:
                continue
            checked += 1
            assert search_at(a, I, found_q + 1) is not None


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
