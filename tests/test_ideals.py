"""Monomial-ideal arithmetic: minimalization, powers, colons, colength, ord."""

import math
import random
import tracemalloc
from itertools import product

import pytest

from subintegral import (
    DimensionMismatch,
    MonomialIdeal,
    i_greater,
    integral_closure,
    ord_in,
)
from subintegral import ideals
from subintegral.closure import facet_staircase
from subintegral.ideals import staircase_corners
from subintegral.poly import SparsePoly
from subintegral.rrs import _degree_basis

from oracles import (
    colength_by_box_count,
    ord_by_power_chain,
    random_monomial,
    random_monomial_ideal,
)


def ideal(*exps):
    return MonomialIdeal(len(exps[0]), exps)


class TestMinimalGenerators:
    def test_dominated_generator_dropped(self):
        I = MonomialIdeal(2, [(2, 0), (1, 2), (0, 3), (2, 1)])
        assert I.gens == ((0, 3), (1, 2), (2, 0))

    def test_singleton(self):
        assert MonomialIdeal(2, [(1, 0)]).gens == ((1, 0),)

    def test_antichain_kept(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        assert len(I.gens) == 3

    def test_idempotent_and_order_independent(self):
        rng = random.Random(7)
        for _ in range(50):
            vecs = [
                tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(6)
            ]
            vecs = [v for v in vecs if any(v)] or [(1, 0)]
            I = MonomialIdeal(2, vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert MonomialIdeal(2, shuffled) == I
            assert MonomialIdeal(2, I.gens) == I

    def test_mixed_lengths_error(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal(2, [(1, 0), (1, 0, 0)])


class TestIdealPower:
    def test_maximal_ideal_square(self):
        m = MonomialIdeal.maximal(2)
        assert m.power(2).gens == ((0, 2), (1, 1), (2, 0))

    def test_power_of_staircase(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        assert I.power(2).gens == ((0, 6), (1, 5), (2, 3), (3, 2), (4, 0))

    def test_zeroth_power_is_unit(self):
        I = ideal((2, 0), (0, 3))
        assert I.power(0).is_unit

    def test_power_additivity(self):
        rng = random.Random(21)
        for _ in range(12):
            I = random_monomial_ideal(rng, rng.choice([2, 3]), max_exp=3)
            a = rng.randint(0, 4)
            b = rng.randint(0, 8 - a)
            assert I.power(a) * I.power(b) == I.power(a + b)

    def test_power_is_a_chain_of_products(self, monkeypatch):
        I = ideal((3, 0), (1, 1), (0, 2))
        expected = [MonomialIdeal.unit(2), I]
        for _ in range(6):
            expected.append(expected[-1] * I)
        products = []
        original = MonomialIdeal.__mul__

        def counted(a, b):
            products.append(b)
            return original(a, b)

        monkeypatch.setattr(MonomialIdeal, "__mul__", counted)
        for k in range(8):
            products.clear()
            assert I.power(k) == expected[k]
            assert len(products) == max(k - 1, 0)
            assert all(b is I for b in products)

    def test_long_power_chain(self):
        # A long power is a loop of products, not a recursion.
        assert ideal((1, 2)).power(1500).gens == ((1500, 3000),)


class TestColon:
    def test_core_colon_first_example(self):
        I = ideal((4, 0), (2, 3), (0, 6))
        J = ideal((2, 0), (1, 2), (0, 3))
        assert I.colon(J).gens == ((0, 4), (1, 3), (2, 1), (3, 0))

    def test_core_colon_second_example(self):
        I = ideal((4, 0), (2, 2), (0, 4))
        J = ideal((2, 0), (1, 1), (0, 2))
        assert I.colon(J) == MonomialIdeal.maximal(2).power(3)

    def test_colon_by_unit(self):
        I = ideal((2, 0), (1, 2))
        assert I.colon(MonomialIdeal.unit(2)) == I

    def test_colon_product_contains_factor(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            J = random_monomial_ideal(rng, n, max_exp=3)
            assert (I * J).colon(J).contains_ideal(I)
        # equality for principal J
        for _ in range(10):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            g = tuple(rng.randint(0, 3) for _ in range(n))
            J = MonomialIdeal(n, [g])
            assert (I * J).colon(J) == I


class TestColength:
    def test_square_corner(self):
        assert ideal((2, 0), (0, 2)).colength() == 4

    def test_maximal_ideal(self):
        assert MonomialIdeal.maximal(2).colength() == 1

    def test_staircase_count(self):
        assert ideal((2, 0), (1, 2), (0, 3)).colength() == 5

    def test_infinite_colength(self):
        assert ideal((2, 0),).colength() == math.inf


class TestStaircaseWork:
    """The walk reads each least value once and keeps one slab of them."""

    IDEALS = [
        ideal((7, 0), (2, 3), (0, 5)),
        ideal((5, 0, 0), (0, 6, 0), (0, 0, 4), (1, 2, 1)),
        ideal((3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 2), (1, 1, 1, 1)),
        ideal((6,)),
    ]

    @pytest.mark.parametrize("I", IDEALS)
    @pytest.mark.parametrize("slack", [0, 1])
    def test_corners_call_least_once_per_prefix(self, I, slack):
        bounds, least = facet_staircase(I, slack)
        calls = []

        def counted(p, below):
            calls.append(p)
            return least(p, below)

        corners = staircase_corners(bounds, counted)
        closure = MonomialIdeal(I.nvars, corners)
        assert calls == list(product(*map(range, bounds)))
        assert closure == (i_greater(I) if slack else integral_closure(I))

    @pytest.mark.parametrize("I", IDEALS)
    def test_colength_and_degree_basis_scan_no_generators(self, I, monkeypatch):
        expected = colength_by_box_count(I)
        degree = 9
        basis = [
            e
            for e in product(range(degree + 1), repeat=I.nvars)
            if sum(e) <= degree and I.contains_exponent(e)
        ]

        def refuse(a, b):
            raise AssertionError("a generator was scanned for one prefix")

        monkeypatch.setattr(ideals, "_dominates", refuse)
        assert I.colength() == expected
        assert _degree_basis(I, degree) == basis

    def test_colength_keeps_one_slab(self):
        """300 x 301 prefixes: a memo over the whole box would take more
        than 700 KiB; one slab of 301 values takes a few."""
        I = ideal((300, 0, 0), (0, 301, 0), (0, 0, 302), (100, 100, 100))
        tracemalloc.start()
        try:
            value = I.colength()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == 300 * 301 * 302 - 200 * 201 * 202
        assert peak < 256 * 1024


class TestOrd:
    def test_ord_in_maximal(self):
        m = MonomialIdeal.maximal(2)
        assert ord_in(SparsePoly.monomial((1, 1)), m) == 2

    def test_ord_strictly_in_first_power(self):
        I = ideal((2, 0), (1, 2), (0, 3))
        assert ord_in(SparsePoly.monomial((2, 1)), I) == 1

    def test_ord_of_zero_is_infinite(self):
        I = ideal((2, 0), (0, 3))
        assert ord_in(SparsePoly.zero(2), I) == math.inf

    def test_cap_is_the_at_least_flag(self):
        # A return value equal to cap means the order is >= cap.
        I = MonomialIdeal(1, [(1,)])
        assert ord_in(SparsePoly.monomial((100,)), I, cap=64) == 64
        assert ord_in(SparsePoly.monomial((100,)), I, cap=128) == 100

    def test_ord_in_unit_ideal_is_infinite(self):
        assert ord_in(SparsePoly.monomial((3, 3)), MonomialIdeal.unit(2)) == math.inf

    def test_ord_matches_power_chain(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            f = random_monomial(rng, n, max_exp=6)
            assert ord_in(f, I, cap=32) == ord_by_power_chain(f, I, cap=32)

    def test_membership_is_multiplicative(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            f = random_monomial(rng, n, max_exp=4)
            g = random_monomial(rng, n, max_exp=4)
            nf, mg = ord_in(f, I, cap=32), ord_in(g, I, cap=32)
            if math.isinf(nf) or math.isinf(mg):
                continue
            assert I.power(nf + mg).contains(f * g)
