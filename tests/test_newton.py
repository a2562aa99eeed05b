"""Newton polyhedra and Rees valuations against hand data and the sweep oracle."""

import random
from fractions import Fraction

import pytest

from subintegral import (
    MonomialIdeal,
    UnsupportedIdeal,
    linalg,
    multiplicity,
    newton,
    newton_polyhedron,
    rees_valuations,
)

from oracles import (
    bounded_facets_2d_sweep,
    multiplicity_by_hilbert_samuel,
    random_monomial_ideal,
    vertices_2d_sweep,
    vertices_3d_brute,
    vertices_by_tight_facets,
)


def ideal(*exps):
    return MonomialIdeal(len(exps[0]), exps)


def bounded_set(I):
    np = newton_polyhedron(I)
    return {(f.normal, f.value) for f in np.bounded_facets()}


class TestNewtonPolyhedron:
    def test_weighted_staircase(self):
        np = newton_polyhedron(ideal((2, 0), (1, 2), (0, 3)))
        assert bounded_set(ideal((2, 0), (1, 2), (0, 3))) == {((3, 2), 6)}
        assert np.vertices == ((0, 3), (2, 0))

    def test_degree_two_corner(self):
        assert bounded_set(ideal((2, 0), (1, 1), (0, 2))) == {((1, 1), 2)}

    def test_maximal_ideal_simplex(self):
        assert bounded_set(MonomialIdeal.maximal(2)) == {((1, 1), 1)}

    def test_zero_ideal_rejected(self):
        with pytest.raises(UnsupportedIdeal):
            newton_polyhedron(MonomialIdeal.zero(2))

    def test_generators_inside_own_polyhedron(self):
        rng = random.Random(3)
        for _ in range(25):
            I = random_monomial_ideal(rng, rng.choice([2, 3]), max_exp=4)
            np = newton_polyhedron(I)
            assert all(
                sum(w * v for w, v in zip(f.normal, g)) >= f.value
                for g in I.gens
                for f in np.facets
            )

    def test_power_scales_facets(self):
        # NP(I^k) = k NP(I), checked in 2-4 variables.
        rng = random.Random(5)
        for nvars in [2] * 10 + [3] * 6 + [4] * 4:
            I = random_monomial_ideal(rng, nvars, max_exp=3)
            base = newton_polyhedron(I)
            k = rng.randint(2, 5)
            scaled = newton_polyhedron(I.power(k))
            got = {(f.normal, f.value) for f in scaled.facets}
            want = {(f.normal, k * f.value) for f in base.facets}
            assert got == want
            assert scaled.vertices == tuple(
                tuple(k * a for a in v) for v in base.vertices
            )

    def test_double_description_does_no_rational_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("double description reached linalg")

        monkeypatch.setattr(linalg.Echelon, "add_row", refuse)
        monkeypatch.setattr(linalg.Echelon, "_eliminate", refuse)
        newton.newton_polyhedron.cache_clear()
        for I in (
            ideal((3, 0), (1, 1), (0, 4)),
            ideal((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)),
            ideal((3, 0, 0, 0), (0, 4, 0, 0), (0, 0, 2, 0), (0, 0, 0, 5), (1, 1, 1, 1)),
        ):
            assert newton_polyhedron(I).bounded_facets()


class TestIncidence:
    def test_matches_dot_products_on_random_ideals(self):
        # Vertices and vertex masks from the rays' tight sets agree with dot
        # products, and the multiplicity read from them with Hilbert-Samuel.
        rng = random.Random(29)
        for nvars, count, max_exp in ((2, 40, 6), (3, 30, 4), (4, 15, 3), (5, 6, 2)):
            for _ in range(count):
                I = random_monomial_ideal(rng, nvars, max_exp=max_exp, extra=rng.randint(1, 4))
                np = newton_polyhedron(I)
                facets = [(f.normal, f.value) for f in np.facets]
                assert np.vertices == vertices_by_tight_facets(I.gens, facets)
                assert np.incidence == tuple(
                    sum(
                        1 << i
                        for i, v in enumerate(np.vertices)
                        if sum(a * b for a, b in zip(w, v)) == value
                    )
                    for w, value in facets
                )
                assert multiplicity(I) == multiplicity_by_hilbert_samuel(I)

    def test_no_dot_products_past_double_description(self, monkeypatch):
        I = MonomialIdeal(4, [(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 2)]).power(3)
        rays = newton.extreme_rays(I.gens)
        calls = []

        def counting_dot(a, b):
            calls.append(1)
            return sum(x * y for x, y in zip(a, b))

        monkeypatch.setattr(newton, "extreme_rays", lambda gens: rays)
        monkeypatch.setattr(newton, "_dot", counting_dot)
        newton.newton_polyhedron.cache_clear()
        assert multiplicity(I) == 3 * 2 * 3 * 2 * 3**4
        assert not calls
        newton.newton_polyhedron.cache_clear()


class TestReesValuations:
    def test_weighted_staircase(self):
        vals = rees_valuations(ideal((2, 0), (1, 2), (0, 3)))
        assert [(v.weight, v.value_on_ideal) for v in vals] == [((3, 2), 6)]

    def test_three_variables(self):
        vals = rees_valuations(ideal((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert [(v.weight, v.value_on_ideal) for v in vals] == [((1, 1, 1), 2)]

    def test_maximal_ideal(self):
        vals = rees_valuations(MonomialIdeal.maximal(2))
        assert [(v.weight, v.value_on_ideal) for v in vals] == [((1, 1), 1)]

    def test_refuses_infinite_colength(self):
        with pytest.raises(UnsupportedIdeal):
            rees_valuations(ideal((2, 0),))

    def test_bounded_facets_exist_and_are_positive(self):
        rng = random.Random(9)
        for _ in range(25):
            I = random_monomial_ideal(rng, rng.choice([2, 3]), max_exp=4)
            vals = rees_valuations(I)
            assert vals
            assert all(all(w > 0 for w in v.weight) for v in vals)


class TestMembership:
    # A point lies in NP(I) iff <normal, p> >= value for every facet; the
    # coordinate facets (normal e_i, value 0) are among them.
    def test_point_below_facet(self):
        np = newton_polyhedron(ideal((2, 0), (1, 2), (0, 3)))
        assert not all(
            sum(w * v for w, v in zip(f.normal, (1, 1))) >= f.value for f in np.facets
        )

    def test_point_above_facet(self):
        np = newton_polyhedron(ideal((2, 0), (1, 2), (0, 3)))
        for p in ((1, 2), (Fraction(2, 3), 2)):
            assert all(sum(w * v for w, v in zip(f.normal, p)) >= f.value for f in np.facets)

    def test_negative_entries_rejected_quietly(self):
        np = newton_polyhedron(MonomialIdeal.maximal(2))
        assert not all(
            sum(w * v for w, v in zip(f.normal, (-1, 5))) >= f.value for f in np.facets
        )


class TestSweepOracle:
    def test_agreement_on_random_two_variable_ideals(self):
        rng = random.Random(17)
        for _ in range(60):
            I = random_monomial_ideal(
                rng, 2, max_exp=6, extra=rng.randint(1, 4),
                finite_colength=rng.random() < 0.7,
            )
            assert bounded_set(I) == bounded_facets_2d_sweep(I.gens)
            assert set(newton_polyhedron(I).vertices) == vertices_2d_sweep(I.gens)


class TestBruteFacetOracle3D:
    def test_corner_cut_hand_case(self):
        from oracles import facets_3d_brute

        I = ideal((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1))
        got = {(f.normal, f.value) for f in newton_polyhedron(I).facets}
        assert got == facets_3d_brute(I.gens)
        assert {(f.normal, f.value) for f in newton_polyhedron(I).bounded_facets()} == {
            ((1, 1, 2), 4), ((1, 2, 1), 4), ((2, 1, 1), 4)
        }
        assert set(newton_polyhedron(I).vertices) == vertices_3d_brute(I.gens)

    def test_agreement_on_random_three_variable_ideals(self):
        from oracles import facets_3d_brute

        rng = random.Random(53)
        for _ in range(40):
            I = random_monomial_ideal(
                rng, 3, max_exp=4, extra=rng.randint(1, 3),
                finite_colength=rng.random() < 0.7,
            )
            got = {(f.normal, f.value) for f in newton_polyhedron(I).facets}
            assert got == facets_3d_brute(I.gens), I.to_string()
            assert set(newton_polyhedron(I).vertices) == vertices_3d_brute(I.gens), I.to_string()
