"""Branched-cover checks: deep locus membership, multiplicities, uniqueness."""

import random
from fractions import Fraction

import pytest

from subintegral import (
    MonicHypersurface,
    MonomialIdeal,
    RRSSystem,
    construct_from_igt,
    deep_roots,
    from_rrs,
    graph_on_deep_locus,
    root_multiplicity,
    unique_deep_root_check,
    zz_membership,
)
from subintegral.poly import SparsePoly

from oracles import random_igt_element, random_monomial_ideal


def mono(*exp):
    return SparsePoly.monomial(tuple(exp))


def univariate_surface(coeffs_by_tdeg):
    """Surface in one space variable X from {T-degree: poly-in-X}."""
    nv = 2
    total = SparsePoly.zero(nv)
    deg = max(coeffs_by_tdeg)
    for td, p in coeffs_by_tdeg.items():
        lifted = SparsePoly(nv, {(e[0], td): c for e, c in p.items()})
        total = total + lifted
    return MonicHypersurface(space_vars=1, poly=total, degree=deg)


X = SparsePoly.monomial((1,))
ONE = SparsePoly.constant(1, 1)


class TestFromRRS:
    def test_degree_one_graph(self):
        h = mono(1, 2)
        system = RRSSystem(q=0, coeffs=(-h,))
        surface = from_rrs(system)
        assert surface.degree == 1
        # F = T - h: vanishes exactly on the graph of h.
        assert zz_membership(surface, [1, 1, 1])
        assert not zz_membership(surface, [1, 1, 2])

    def test_certificate_surface_is_monic(self):
        I = MonomialIdeal(2, [(2, 0), (1, 2), (0, 3)])
        system = construct_from_igt(mono(2, 1), I)
        surface = from_rrs(system)
        assert surface.degree == 2 * system.q + 1

    def test_zero_coefficients_give_pure_power(self):
        z = SparsePoly.zero(2)
        system = RRSSystem(q=1, coeffs=(z, z, z))
        surface = from_rrs(system)
        assert surface.poly == SparsePoly.monomial((0, 0, 3))


class TestZZMembership:
    def test_double_point_of_cone(self):
        surface = univariate_surface({2: ONE, 0: -(X * X)})  # T^2 - X^2
        assert surface.ell == 1
        assert zz_membership(surface, [0, 0])
        assert not zz_membership(surface, [1, 1])  # simple root only

    def test_triple_line(self):
        # (T-1)^3: T^3 - 3T^2 + 3T - 1
        surface = univariate_surface(
            {3: ONE, 2: -3 * ONE, 1: 3 * ONE, 0: -ONE}
        )
        for x in (0, 1, Fraction(5, 7)):
            assert zz_membership(surface, [x, 1])

    def test_certificate_graph_point(self):
        I = MonomialIdeal(2, [(2, 0), (1, 2), (0, 3)])
        h = mono(2, 1)
        surface = from_rrs(construct_from_igt(h, I))
        assert zz_membership(surface, [1, 1, h.evaluate([1, 1])])

    def test_equivalent_to_deep_multiplicity(self):
        rng = random.Random(19)
        for _ in range(20):
            coeffs = {
                td: SparsePoly.constant(1, rng.randint(-2, 2))
                * (X ** rng.randint(0, 2))
                for td in range(rng.randint(1, 5))
            }
            deg = max(coeffs, default=0) + rng.randint(1, 2)
            coeffs[deg] = ONE
            surface = univariate_surface(coeffs)
            for x in (0, 1, -1, Fraction(1, 2)):
                for t in (0, 1, -1):
                    member = zz_membership(surface, [x, t])
                    mult = root_multiplicity(surface, [x], t)
                    assert member == (mult >= surface.ell + 1)


class TestRootMultiplicity:
    def test_cubic_times_linear(self):
        # (T-2)^3 (T+1) = T^4 - 5T^3 + 6T^2 + 4T - 8
        surface = univariate_surface(
            {4: ONE, 3: -5 * ONE, 2: 6 * ONE, 1: 4 * ONE, 0: -8 * ONE}
        )
        assert root_multiplicity(surface, [3], 2) == 3
        assert root_multiplicity(surface, [3], -1) == 1
        assert root_multiplicity(surface, [3], 5) == 0

    def test_certificate_multiplicity_at_least_q_plus_one(self):
        rng = random.Random(33)
        cases = 0
        while cases < 5:
            I = random_monomial_ideal(rng, 2, max_exp=3)
            from subintegral import i_greater, in_i_greater

            a = random_igt_element(rng, i_greater(I))
            if not in_i_greater(a, I):
                continue
            cases += 1
            system = construct_from_igt(a, I)
            surface = from_rrs(system)
            for point in ([1, 1], [2, -1], [Fraction(1, 3), 2]):
                t = a.evaluate(point)
                assert root_multiplicity(surface, point, t) >= system.q + 1


class TestUniqueDeepRoot:
    def test_cone_surface(self):
        surface = univariate_surface({2: ONE, 0: -(X * X)})
        assert unique_deep_root_check(surface, [[x] for x in range(-3, 4)])

    def test_two_double_roots_vacuous(self):
        # (T-1)^2 (T-2)^2 has no root of multiplicity >= 3 (ell + 1 = 3).
        surface = univariate_surface(
            {4: ONE, 3: -6 * ONE, 2: 13 * ONE, 1: -12 * ONE, 0: 4 * ONE}
        )
        assert surface.ell == 2
        assert deep_roots(surface, [0]) == []
        assert unique_deep_root_check(surface, [[x] for x in range(-2, 3)])

    def test_random_monic_surfaces(self):
        rng = random.Random(51)
        samples = [[Fraction(k, 3)] for k in range(-12, 13)]
        for _ in range(20):
            deg = rng.randint(1, 7)
            coeffs = {deg: ONE}
            for td in range(deg):
                c = rng.randint(-3, 3)
                if c:
                    coeffs[td] = SparsePoly.constant(1, c) * (
                        X ** rng.randint(0, 2)
                    )
            surface = univariate_surface(coeffs)
            assert unique_deep_root_check(surface, samples)

    def test_certificate_graph_everywhere(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        h = mono(2, 1)  # x^2 y has value 3 > 2
        surface = from_rrs(construct_from_igt(h, I))
        points = [[Fraction(a, 2), Fraction(b, 3)] for a in range(-4, 5) for b in (-3, 1, 4)]
        assert graph_on_deep_locus(surface, h, points)


class TestDeepRootRegressions:
    """Inputs on which the former rational-root search did not finish: it
    trial-divided by every divisor of the cleared constant term."""

    def test_certificate_surface_at_small_base_point(self):
        I = MonomialIdeal(2, [(2, 0), (1, 2), (0, 3)])
        h = mono(2, 1)
        system = construct_from_igt(h, I)
        assert system.q == 2
        point = [Fraction(1, 7), Fraction(2, 7)]
        assert deep_roots(from_rrs(system), point) == [Fraction(2, 343)]
        assert h.evaluate(point) == Fraction(2, 343)

    def test_zz_check_of_boundary_element(self, capsys):
        import json

        from subintegral.cli import main

        assert main(["--json", "-c", "ring QQ[x,y]; zz-check (x*y^2) in (x^2, y^3)"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["graph_on_deep_locus"] and result["unique_deep_root"]


class TestDeepRootsAgainstSympy:
    """deep_roots against the root multiplicities sympy computes for random
    monic F(T) of odd and even degree."""

    def check(self, expr):
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        poly = sympy.Poly(sympy.expand(expr), T)
        coeffs = {
            td: SparsePoly.constant(1, Fraction(int(c.p), int(c.q)))
            for (td,), c in poly.terms()
        }
        surface = univariate_surface(coeffs)
        want = sorted(
            Fraction(int(r.p), int(r.q))
            for r, m in sympy.roots(poly).items()
            if m >= surface.ell + 1
        )
        assert deep_roots(surface, [0]) == want
        return want

    def random_monic(self, rng, T, degree):
        return T**degree + sum(rng.randint(-3, 3) * T**j for j in range(degree))

    def test_planted_deep_root(self):
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(5)
        for degree in (1, 2, 3, 4, 5, 6, 7, 8, 9):
            for _ in range(3):
                r = sympy.Rational(rng.randint(-9, 9), rng.randint(1, 9))
                m = rng.randint(degree // 2 + 1, degree)
                rest = self.random_monic(rng, T, degree - m)
                assert self.check((T - r) ** m * rest) == [Fraction(int(r.p), int(r.q))]

    def test_no_deep_root(self):
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(6)
        for degree in (2, 3, 4, 5, 6, 7, 8, 9):
            for _ in range(3):
                # a double root plus a random cofactor: deep only by accident
                self.check((T - rng.randint(-3, 3)) ** 2 * self.random_monic(rng, T, degree - 2))
            # two roots of multiplicity floor(N/2): neither is deep
            half = degree // 2
            f = (T - 1) ** half * (T + sympy.Rational(1, 2)) ** half * T ** (degree % 2)
            assert self.check(f) == []

    def test_irrational_roots(self):
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(7)
        for degree in (4, 5, 6, 7, 8, 9):
            r = sympy.Rational(rng.randint(-5, 5), rng.randint(1, 4))
            k = rng.randint(1, (degree - 1) // 2)
            # the conjugate pair of a repeated quadratic factor is never deep
            assert self.check((T**2 - 2) ** k * (T - r) ** (degree - 2 * k)) == (
                [Fraction(int(r.p), int(r.q))] if degree - 2 * k > degree // 2 else []
            )
            assert self.check((T**2 - 3) ** (degree // 2) * T ** (degree % 2)) == []
