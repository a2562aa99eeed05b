"""Reductions, multiplicity, cores, star closures, and the classification."""

import random
from math import prod

import pytest

from subintegral import (
    BudgetExceeded,
    MonomialIdeal,
    PolyIdeal,
    PreconditionError,
    ReductionsClass,
    UnsupportedIdeal,
    classify_reductions,
    colength_poly,
    core_via_colon,
    dim_i_mod_igt,
    i_greater,
    intersect_star_two,
    is_reduction_monomial,
    is_reduction_parameter,
    multiplicity,
    star_of_min_reduction,
)
from subintegral import newton
from subintegral.poly import SparsePoly
from subintegral.reductions import TruncatedQuotient

from oracles import dim_by_facet_generators, random_monomial_ideal


def ideal(*exps):
    return MonomialIdeal(len(exps[0]), exps)


def mono(*exp):
    return SparsePoly.monomial(tuple(exp))


WEIGHTED = ideal((2, 0), (1, 2), (0, 3))
DEGREE2 = ideal((2, 0), (1, 1), (0, 2))
X, Y = mono(1, 0), mono(0, 1)


class TestMonomialReduction:
    def test_parameter_subideal_of_weighted(self):
        assert is_reduction_monomial(ideal((2, 0), (0, 3)), WEIGHTED)

    def test_corner_inside_degree_two(self):
        assert is_reduction_monomial(ideal((2, 0), (0, 2)), DEGREE2)

    def test_missing_direction_fails(self):
        assert not is_reduction_monomial(ideal((2, 0), (1, 1)), DEGREE2)

    def test_containment_checked(self):
        with pytest.raises(PreconditionError):
            is_reduction_monomial(ideal((1, 0), (0, 1)), DEGREE2)


class TestMultiplicity:
    def test_degree_two_corner(self):
        assert multiplicity(DEGREE2) == 4

    def test_maximal_ideal(self):
        assert multiplicity(MonomialIdeal.maximal(2)) == 1

    def test_weighted_staircase(self):
        assert multiplicity(WEIGHTED) == 6

    def test_one_and_three_variables(self):
        assert multiplicity(MonomialIdeal(1, [(5,)])) == 5
        assert multiplicity(ideal((2, 0, 0), (0, 2, 0), (0, 0, 2))) == 8
        assert multiplicity(MonomialIdeal.maximal(3).power(2)) == 8

    def test_pure_powers_give_the_product_of_exponents(self):
        rng = random.Random(59)
        for n in range(1, 6):
            for _ in range(4):
                axes = [rng.randint(1, 7) for _ in range(n)]
                gens = [tuple(a * (i == j) for j in range(n)) for i, a in enumerate(axes)]
                assert multiplicity(MonomialIdeal(n, gens)) == prod(axes)

    def test_powers_of_the_maximal_ideal(self):
        for n in range(1, 6):
            for k in range(1, 4):
                assert multiplicity(MonomialIdeal.maximal(n).power(k)) == k**n

    def test_three_facet_corner_cut(self):
        # Three quadrilateral bounded facets; the value 48 equals the third
        # difference of colength(I^k), the Hilbert-Samuel leading term.
        I = ideal((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1))
        assert multiplicity(I) == 48
        cl = {k: I.power(k).colength() for k in range(5, 9)}
        assert cl[8] - 3 * cl[7] + 3 * cl[6] - cl[5] == 48

    def test_equals_parameter_colength(self):
        rng = random.Random(61)
        for _ in range(15):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            # The pure powers on the axes form a parameter subideal.
            axes = []
            for i, k in enumerate(I.axis_degrees()):
                e = [0] * n
                e[i] = int(k)
                axes.append(tuple(e))
            J = MonomialIdeal(n, axes)
            assert multiplicity(J) == J.colength()


class TestParameterReduction:
    def test_deformed_corner(self):
        J = PolyIdeal(2, (X * X + X * Y, Y * Y))
        assert is_reduction_parameter(J, DEGREE2)

    def test_plain_corner(self):
        J = PolyIdeal(2, (X * X, Y * Y))
        assert colength_poly(J) == 4
        assert is_reduction_parameter(J, DEGREE2)

    def test_too_deep_corner_fails(self):
        J = PolyIdeal(2, (X * X * X, Y * Y))
        assert colength_poly(J) == 6
        assert not is_reduction_parameter(J, DEGREE2)

    def test_dependent_generators_stop_above_the_multiplicity(self):
        # J = (x^4 + y^4, 2x^4 + 2y^4) is not m-primary: d_N = dim A/(J + m^N)
        # reads 1, 3, 6, 10, 14, 18, ... and never stabilizes, so the walk
        # stops at d_6 = 18, the first value above e(I) = 16.
        J = PolyIdeal(2, (X**4 + Y**4, 2 * X**4 + 2 * Y**4))
        I = ideal((4, 0), (0, 4))
        assert colength_poly(J, stop_above=16) == 18
        with pytest.raises(BudgetExceeded):
            colength_poly(J, cap=8)
        assert not is_reduction_parameter(J, I)

    def test_multiplicity_is_checked_before_the_walk(self):
        # Four variables are refused before e(I) and the walk: the walk would
        # run to its cap on these dependent generators, and in four
        # variables its truncation boxes have no work bound yet.
        squares = [SparsePoly.monomial(tuple(2 * (i == j) for j in range(4))) for i in range(4)]
        x2, y2, z2, w2 = squares
        J = PolyIdeal(4, (x2, y2, x2 + y2, z2 + w2))
        I = MonomialIdeal(4, [sq.exponents()[0] for sq in squares])
        with pytest.raises(UnsupportedIdeal):
            is_reduction_parameter(J, I)

    def test_agrees_with_monomial_test(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            axes = []
            for i, k in enumerate(I.axis_degrees()):
                e = [0] * n
                e[i] = int(k) + rng.randint(0, 1)
                axes.append(tuple(e))
            J = MonomialIdeal(n, axes)
            monomial = is_reduction_monomial(J, I)
            parameter = is_reduction_parameter(PolyIdeal.from_monomial(J), I)
            assert monomial == parameter


class TestCore:
    def test_weighted_example(self):
        core = core_via_colon(WEIGHTED, ideal((2, 0), (0, 3)))
        assert core == ideal((3, 0), (2, 1), (1, 3), (0, 4))

    def test_degree_two_example(self):
        core = core_via_colon(DEGREE2, ideal((2, 0), (0, 2)))
        assert core == MonomialIdeal.maximal(2).power(3)

    def test_maximal_ideal_is_its_own_core(self):
        m = MonomialIdeal.maximal(2)
        assert core_via_colon(m, m) == m

    def test_core_inside_star_and_igt(self):
        for I, J in ((WEIGHTED, ideal((2, 0), (0, 3))), (DEGREE2, ideal((2, 0), (0, 2)))):
            core = core_via_colon(I, J)
            star = star_of_min_reduction(J, I)
            for g in core.gens:
                assert star.contains(SparsePoly.monomial(g))
            for g in i_greater(I).gens:
                assert star.contains(SparsePoly.monomial(g))


class TestStarOfMinimalReduction:
    def test_corner_star_is_itself(self):
        star = star_of_min_reduction(ideal((2, 0), (0, 2)), DEGREE2)
        assert not star.contains(mono(1, 1))

    def test_weighted_star_contains_interior_generator(self):
        star = star_of_min_reduction(ideal((2, 0), (0, 3)), WEIGHTED)
        assert star.contains(mono(1, 2))

    def test_reduction_elements_are_members(self):
        star = star_of_min_reduction(ideal((2, 0), (0, 3)), WEIGHTED)
        assert star.contains(mono(2, 0) + 5 * mono(0, 3))

    def test_one_double_description_per_ideal(self, monkeypatch):
        # NP(J) and NP(I) are each built once; the Rees valuations that
        # i_greater and the truncation order read come from the cache.
        calls = []
        extreme_rays = newton.extreme_rays

        def spy(constraints):
            calls.append(constraints)
            return extreme_rays(constraints)

        monkeypatch.setattr(newton, "extreme_rays", spy)
        newton.newton_polyhedron.cache_clear()
        star_of_min_reduction(ideal((4, 0), (0, 4)), ideal((4, 0), (3, 1), (0, 4)))
        assert len(calls) == 2

    def test_rejects_non_reduction(self):
        with pytest.raises(PreconditionError):
            star_of_min_reduction(ideal((2, 0), (0, 4)), ideal((2, 0), (0, 3)))


class TestDimAndClassification:
    def test_dimension_counts(self):
        assert dim_i_mod_igt(WEIGHTED) == 2
        assert dim_i_mod_igt(DEGREE2) == 3
        assert dim_i_mod_igt(MonomialIdeal.maximal(2)) == 2

    def test_dimension_at_least_nvars(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=4)
            assert dim_i_mod_igt(I) >= n

    def test_dimension_counts_generators_on_bounded_facets(self):
        rng = random.Random(83)
        for nvars, count, max_exp in ((2, 60, 8), (3, 40, 5), (4, 20, 3)):
            for _ in range(count):
                I = random_monomial_ideal(rng, nvars, max_exp=max_exp, extra=rng.randint(1, 4))
                assert dim_i_mod_igt(I) == dim_by_facet_generators(I), I.to_string()

    def test_classification_of_worked_examples(self):
        assert (
            classify_reductions(WEIGHTED)
            is ReductionsClass.EVERY_REDUCTION_STAR_EQUALS_I
        )
        assert (
            classify_reductions(DEGREE2)
            is ReductionsClass.INTERSECTION_IS_I_GREATER
        )
        assert (
            classify_reductions(MonomialIdeal.maximal(2))
            is ReductionsClass.EVERY_REDUCTION_STAR_EQUALS_I
        )

    def test_classification_in_four_variables(self):
        m = MonomialIdeal.maximal(4)
        assert classify_reductions(m) is ReductionsClass.EVERY_REDUCTION_STAR_EQUALS_I
        assert (
            classify_reductions(m.power(2))
            is ReductionsClass.INTERSECTION_IS_I_GREATER
        )

    def test_classification_needs_integrally_closed(self):
        with pytest.raises(PreconditionError):
            classify_reductions(ideal((2, 0), (0, 2)))


class TestIntersectStars:
    def test_deformed_pair_at_unit_parameters(self):
        Ja = PolyIdeal(2, (X * X + X * Y, Y * Y))
        Jb = PolyIdeal(2, (X * X, Y * Y + X * Y))
        quotient = intersect_star_two(Ja, Jb, DEGREE2)
        expected = TruncatedQuotient(
            2, quotient.order, [X * X + X * Y + Y * Y] + i_greater(DEGREE2).generator_polys()
        )
        assert quotient.same_row_space(expected)

    def test_deformed_pair_at_mixed_parameters(self):
        Ja = PolyIdeal(2, (X * X + X * Y, Y * Y))          # a = 1
        Jb = PolyIdeal(2, (X * X, Y * Y + 2 * X * Y))      # b = 2
        quotient = intersect_star_two(Ja, Jb, DEGREE2)
        expected = TruncatedQuotient(
            2,
            quotient.order,
            [2 * (X * X) + 2 * (X * Y) + Y * Y]
            + i_greater(DEGREE2).generator_polys(),
        )
        assert quotient.same_row_space(expected)

    def test_same_reduction_gives_star_itself(self):
        J = PolyIdeal(2, (X * X, Y * Y))
        quotient = intersect_star_two(J, J, DEGREE2)
        star = star_of_min_reduction(J, DEGREE2)
        assert quotient.same_row_space(star.quotient)


class TestReductionFromIGT:
    # Adding the part of i_greater(I) inside I never changes whether J is a
    # reduction of I.
    PART = i_greater(WEIGHTED).intersect(WEIGHTED)

    def test_parameter_subideal(self):
        J = ideal((2, 0), (0, 3))
        assert is_reduction_monomial(J, WEIGHTED)
        assert is_reduction_monomial(J + self.PART, WEIGHTED)

    def test_single_generator_fails(self):
        J = ideal((2, 0),)
        assert not is_reduction_monomial(J, WEIGHTED)
        assert not is_reduction_monomial(J + self.PART, WEIGHTED)

    def test_whole_ideal(self):
        assert is_reduction_monomial(WEIGHTED, WEIGHTED)
        assert is_reduction_monomial(WEIGHTED + self.PART, WEIGHTED)

    def test_agreement_on_random_subideals(self):
        rng = random.Random(73)
        for _ in range(25):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            subset = [g for g in I.gens if rng.random() < 0.7]
            J = MonomialIdeal(n, subset)
            assert is_reduction_monomial(
                J + i_greater(I).intersect(I), I
            ) == is_reduction_monomial(J, I)
