"""Arc pullbacks, relative-closure membership, and the sampling refuter."""

import math
import random
from fractions import Fraction
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from subintegral import (
    ArcPair,
    ArcSampler,
    LocalArc,
    MonomialIdeal,
    SubmodulePair,
    arc_pair_stream,
    basic_facts_check,
    bounded_search,
    delta_pair_of_ideal,
    i_greater,
    ideal_pair_membership,
    in_integral_closure,
    prefix_arc_pairs,
    pullback,
    pullback_order,
    refute_star_membership,
    relative_membership,
    sigma1_check,
)
from subintegral.arcs import _ideal_arc_module, _shared_stream
from subintegral.linalg import Echelon
from subintegral.poly import SparsePoly

from oracles import random_igt_element, random_monomial, random_monomial_ideal


def ideal(*exps):
    return MonomialIdeal(len(exps[0]), exps)


def mono(*exp):
    return SparsePoly.monomial(tuple(exp))


def arc(*component_dicts):
    comps = []
    for d in component_dicts:
        comps.append(SparsePoly(1, {(k,): v for k, v in d.items()}))
    return LocalArc(tuple(comps))


T_T = arc({1: 1}, {1: 1})
T_MINUS_T = arc({1: 1}, {1: -1})
CORNER = ideal((2, 0), (0, 2))
WEIGHTED = ideal((2, 0), (1, 2), (0, 3))


class TestPullback:
    def test_square_along_diagonal(self):
        assert pullback_order(mono(2, 0), T_T) == 2

    def test_difference_of_squares_cancels(self):
        f = mono(2, 0) - mono(0, 2)
        a = arc({1: 1}, {1: 1, 2: 1})
        assert pullback(f, a) == SparsePoly(1, {(3,): -2, (4,): -1})
        assert pullback_order(f, a) == 3

    def test_weighted_monomial_arc(self):
        assert pullback_order(mono(1, 1), arc({2: 1}, {3: 1})) == 5

    def test_vanishing_pullback(self):
        assert pullback_order(mono(1, 0), arc({}, {1: 1})) == math.inf


class TestDeltaPair:
    def test_two_generators(self):
        pair = delta_pair_of_ideal(CORNER)
        assert len(pair.inner) == 2 and len(pair.outer) == 4

    def test_three_generators(self):
        pair = delta_pair_of_ideal(ideal((2, 0), (1, 1), (0, 2)))
        assert len(pair.inner) == 3 and len(pair.outer) == 6

    def test_zero_ideal(self):
        pair = delta_pair_of_ideal(MonomialIdeal.zero(2))
        assert pair.inner == () and pair.outer == ()


class TestRelativeMembership:
    def test_hand_checked_refutation(self):
        pair = delta_pair_of_ideal(CORNER)
        h = mono(1, 1)
        arcs = ArcPair(T_T, T_MINUS_T)
        assert not relative_membership((h, h), pair, arcs)
        assert not ideal_pair_membership(h, CORNER, arcs)

    def test_ideal_elements_always_pass(self):
        rng = random.Random(7)
        pair = delta_pair_of_ideal(CORNER)
        h = mono(2, 0) + 3 * mono(1, 2)
        for arcs in arc_pair_stream(2, ArcSampler(seed=1, count=25)):
            assert relative_membership((h, h), pair, arcs)
            assert ideal_pair_membership(h, CORNER, arcs)

    def test_interior_monomial_of_parameter_ideal(self):
        J = ideal((2, 0), (0, 3))
        pair = delta_pair_of_ideal(J)
        h = mono(1, 2)
        arcs = ArcPair(T_T, arc({1: 2}, {1: 3}))
        assert relative_membership((h, h), pair, arcs)
        assert ideal_pair_membership(h, J, arcs)

    def test_fast_path_matches_general_path(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=3)
            h = random_monomial(rng, n, max_exp=5)
            pair = delta_pair_of_ideal(I)
            for arcs in list(arc_pair_stream(n, ArcSampler(seed=3, count=8))):
                assert relative_membership((h, h), pair, arcs) == ideal_pair_membership(
                    h, I, arcs
                )

    def test_truncation_stability(self):
        pair = delta_pair_of_ideal(CORNER)
        h = mono(1, 1)
        for arcs in prefix_arc_pairs(2):
            base = relative_membership((h, h), pair, arcs, trunc=6)
            assert relative_membership((h, h), pair, arcs, trunc=12) == base

    def test_truncation_guard(self):
        from subintegral import TruncationTooSmall

        pair = delta_pair_of_ideal(CORNER)
        h = mono(1, 1)
        with pytest.raises(TruncationTooSmall):
            relative_membership((h, h), pair, ArcPair(T_T, T_MINUS_T), trunc=2)

    def test_one_sided_pair_is_integral_closure_test(self):
        # With the second arc zero, membership reduces to the valuative
        # test along the first arc; integral-closure members never fail.
        rng = random.Random(81)
        for _ in range(20):
            I = random_monomial_ideal(rng, 2, max_exp=3)
            h = random_monomial(rng, 2, max_exp=5)
            if not in_integral_closure(h, I):
                continue
            for arcs in [
                ArcPair(T_T, LocalArc.zero(2)),
                ArcPair(arc({2: 1}, {3: -2}), LocalArc.zero(2)),
                ArcPair(arc({1: 1, 2: 1}, {1: -1}), LocalArc.zero(2)),
            ]:
                assert ideal_pair_membership(h, I, arcs)


class TestDeadSlot:
    # I = (x^2, xy) has infinite colength: along x -> 0, y -> t every
    # generator pulls back to 0 (e = inf) although the arc is not zero, so
    # the dead slot must test h's exact pullback, not a truncation of it.
    I = ideal((2, 0), (1, 1))
    FIRST = arc({}, {1: 1})

    def test_first_slot_is_dead(self):
        assert all(pullback_order(g, self.FIRST) == math.inf for g in self.I.generator_polys())

    @pytest.mark.parametrize(
        "h, expected",
        [(mono(0, 3), False), (mono(1, 5), True), (SparsePoly.constant(2, 1), False)],
    )
    @pytest.mark.parametrize(
        "second", [T_T, T_MINUS_T, LocalArc.zero(2), arc({1: 1, 2: 1}, {2: -1})]
    )
    def test_matches_general_path(self, h, expected, second):
        arcs = ArcPair(self.FIRST, second)
        assert ideal_pair_membership(h, self.I, arcs) == expected
        assert relative_membership((h, h), delta_pair_of_ideal(self.I), arcs) == expected



class TestArcModule:
    # In the exact quotient the diagonal module of I is the span in Q^2 of
    # the generators' (t^e, t^f) coefficient pairs: a line or the plane.
    MIXED = ideal((2, 0), (1, 1), (0, 2))

    def test_equal_arcs_give_the_diagonal_line(self):
        for a in (T_T, T_MINUS_T, arc({1: 2}, {2: 3}), arc({1: 1, 2: 1}, {1: -1})):
            e, f, slope = _ideal_arc_module(WEIGHTED, ArcPair(a, a))
            assert e == f and slope == 1

    def test_proportional_pairs_give_a_line(self):
        # x^2 and y^2 both pull back to t^2 along (t, t) and (t, -t).
        assert _ideal_arc_module(CORNER, ArcPair(T_T, T_MINUS_T)) == (2, 2, 1)

    def test_independent_pairs_give_the_plane(self):
        # xy adds the pair (1, -1) to the line of x^2 and y^2.
        arcs = ArcPair(T_T, T_MINUS_T)
        assert _ideal_arc_module(self.MIXED, arcs) == (2, 2, None)
        h = mono(1, 1) + 3 * mono(2, 0) - mono(0, 1) * mono(0, 2)
        assert ideal_pair_membership(h, self.MIXED, arcs)
        assert not ideal_pair_membership(mono(1, 0), self.MIXED, arcs)

    def test_generators_off_the_order_do_not_count(self):
        # Along (t^2, t) only y^2 attains e = 2 and along (t, t^2) only
        # x^2 attains f = 2: the pairs (0, 1), (1, 0) span the plane.
        arcs = ArcPair(arc({2: 1}, {1: 1}), arc({1: 1}, {2: 1}))
        assert _ideal_arc_module(CORNER, arcs) == (2, 2, None)
        # Along (2t, t^2) and (-t, 5t^2) x^2 alone attains both orders: a line.
        same = ArcPair(arc({1: 2}, {2: 1}), arc({1: -1}, {2: 5}))
        assert _ideal_arc_module(CORNER, same) == (2, 2, Fraction(1, 4))

    @pytest.mark.parametrize(
        "I", [CORNER, WEIGHTED, ideal((2, 0), (1, 1), (0, 2)), ideal((3, 0), (1, 1), (0, 3))]
    )
    @pytest.mark.parametrize(
        "arcs",
        [
            ArcPair(T_T, T_MINUS_T),
            ArcPair(arc({1: 1}, {1: 2}), arc({1: 3}, {1: -1})),
            ArcPair(arc({2: 1}, {1: 1}), arc({1: 1}, {2: 1})),
            ArcPair(arc({1: 1, 2: 1}, {1: -1}), arc({1: 2}, {1: 1, 3: 1})),
        ],
    )
    def test_hand_built_pairs_match_general_path(self, I, arcs):
        pair = delta_pair_of_ideal(I)
        for h in (mono(1, 1), mono(2, 0) - mono(0, 2), mono(1, 1) + mono(0, 2), mono(1, 2)):
            assert ideal_pair_membership(h, I, arcs) == relative_membership((h, h), pair, arcs)

    @pytest.mark.parametrize(
        "arcs, orders",
        [
            (ArcPair(LocalArc.zero(2), T_T), (math.inf, 2)),
            (ArcPair(T_T, LocalArc.zero(2)), (2, math.inf)),
            (ArcPair(arc({}, {1: 1}), T_T), (math.inf, 2)),
        ],
    )
    def test_dead_slots_keep_no_module(self, arcs, orders):
        I = ideal((2, 0), (1, 1))
        assert _ideal_arc_module(I, arcs) == (*orders, None)
        for h in (mono(2, 0), mono(1, 1) + mono(3, 0), mono(0, 3), mono(1, 0)):
            assert ideal_pair_membership(h, I, arcs) == relative_membership(
                (h, h), delta_pair_of_ideal(I), arcs
            )


class TestArcData:
    def test_equal_arcs_compare_and_hash_equal(self):
        a = arc({1: 1, 2: -1}, {}, {3: 2})
        b = LocalArc((
            SparsePoly(1, {(2,): -1, (1,): 1}), SparsePoly.zero(1), SparsePoly(1, {(3,): 2})
        ))
        assert a is not b and a == b and hash(a) == hash(b)
        p, q = ArcPair(a, LocalArc.zero(3)), ArcPair(b, LocalArc.zero(3))
        assert p is not q and p == q and hash(p) == hash(q)
        assert len({p, q}) == 1 and {p: 1}[q] == 1
        assert a != arc({1: 1, 2: -1}, {}, {3: 3})
        assert p != ArcPair(LocalArc.zero(3), a)

    def test_cached_data_is_left_out_of_repr_and_equality(self):
        assert repr(T_T) == f"LocalArc(components={T_T.components!r})"
        assert "hash" not in repr(ArcPair(T_T, T_T))

    def test_cached_series_equals_a_fresh_one(self):
        arcs = [a for pair in arc_pair_stream(3, ArcSampler(seed=4, count=60)) for a in pair]
        arcs.append(arc({2: Fraction(1, 2), 5: 3}, {}, {1: -1}))
        for a in arcs:
            fresh = tuple(tuple((d, c) for (d,), c in comp.items()) for comp in a.components)
            assert a.series == fresh
            assert a.orders == tuple(
                math.inf if comp.is_zero else comp.min_degree() for comp in a.components
            )
            assert hash(a) == hash(LocalArc(a.components))


class TestRefuter:
    def test_witness_for_mixed_monomial(self):
        refutation = refute_star_membership(mono(1, 1), CORNER)
        assert refutation is not None
        assert refutation.index < 10
        assert refutation.pair == ArcPair(T_T, T_MINUS_T)

    def test_no_witness_for_interior_elements(self):
        rng = random.Random(83)
        sampler = ArcSampler(seed=5, count=60)
        for _ in range(10):
            I = random_monomial_ideal(rng, 2, max_exp=3)
            h = random_igt_element(rng, i_greater(I))
            assert refute_star_membership(h, I, sampler) is None

    def test_unit_element_refuted_immediately(self):
        h = SparsePoly.constant(2, 1) + mono(1, 0)
        refutation = refute_star_membership(h, CORNER)
        assert refutation is not None and refutation.index == 0

    def test_refutation_blocks_certificates(self):
        rng = random.Random(87)
        sampler = ArcSampler(seed=9, count=40)
        checked = 0
        for _ in range(200):
            if checked >= 8:
                break
            I = random_monomial_ideal(rng, 2, max_exp=3)
            h = random_monomial(rng, 2, max_exp=4)
            refutation = refute_star_membership(h, I, sampler)
            if refutation is None:
                continue
            checked += 1
            assert bounded_search(h, I, q_max=2) is None
        assert checked >= 5

    def test_stream_never_composes(self, monkeypatch):
        # The refuter pulls back through truncated power tables only; a call
        # to the full composition would mean an untruncated hot path.
        def composed(*args):
            raise AssertionError("SparsePoly.compose on the refuter path")

        monkeypatch.setattr(SparsePoly, "compose", composed)
        sampler = ArcSampler(seed=2, count=100)
        for I, h, outside in [
            (CORNER, mono(2, 0) - 3 * mono(1, 2) + mono(0, 5), mono(1, 1)),
            (
                ideal((2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)),
                mono(1, 1, 1) - mono(0, 3, 1) + 2 * mono(4, 0, 0),
                mono(1, 0, 1),
            ),
        ]:
            pairs = list(arc_pair_stream(I.nvars, sampler))
            comps = [c for pair in pairs for a in pair for c in a]
            assert any(a == LocalArc.zero(I.nvars) for pair in pairs for a in pair)
            assert any(c.is_zero for c in comps) and any(c.num_terms() == 2 for c in comps)
            _ideal_arc_module.cache_clear()
            assert refute_star_membership(h, I, sampler) is None
            assert refute_star_membership(outside, I, sampler) is not None

    def test_threads_share_one_stream(self):
        # Queries on one sampler read one shared stream; readers in several
        # threads that draw it at once must each see arc_pair_stream's pairs.
        sampler = ArcSampler(seed=11, count=300)
        expected = list(arc_pair_stream(3, sampler))
        I = ideal((2, 0, 0), (0, 2, 0), (0, 0, 2))
        start = threading.Barrier(4)

        def refute():
            start.wait()
            return refute_star_membership(mono(2, 1, 0), I, sampler)

        def read():
            start.wait()
            return list(_shared_stream(3, sampler))

        _shared_stream.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fn) for fn in (refute, refute, read, read)]
                results = [f.result() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [None, None, expected, expected]
        refutation = refute_star_membership(mono(1, 1, 0), I, sampler)
        assert refutation.pair == expected[refutation.index]
        assert all(ideal_pair_membership(mono(1, 1, 0), I, p) for p in expected[: refutation.index])



class TestRefuterWork:
    # Noise-free work counts of one fixed refuter input: no elimination at
    # all, and one module per distinct (ideal, arc pair).
    def test_no_echelon_and_one_module_per_pair(self, monkeypatch):
        calls = {"add_row": 0, "contains": 0}

        def counted(name):
            original = getattr(Echelon, name)

            def wrapper(self, row):
                calls[name] += 1
                return original(self, row)

            return wrapper

        for name in calls:
            monkeypatch.setattr(Echelon, name, counted(name))
        sampler = ArcSampler(seed=1, count=100)
        _ideal_arc_module.cache_clear()
        # 100 pairs, two of them repeats of earlier ones.
        assert refute_star_membership(mono(2, 0) + 3 * mono(1, 2), WEIGHTED, sampler) is None
        info = _ideal_arc_module.cache_info()
        assert (info.misses, info.hits) == (98, 2)
        refutation = refute_star_membership(mono(1, 1), WEIGHTED, sampler)
        assert refutation.index == 5
        info = _ideal_arc_module.cache_info()
        assert (info.misses, info.hits) == (98, 8)
        assert calls == {"add_row": 0, "contains": 0}
        # The general path still eliminates, so the counters do count.
        relative_membership((mono(1, 1),) * 2, delta_pair_of_ideal(WEIGHTED), refutation.pair)
        assert calls["add_row"] > 0 and calls["contains"] == 1


class TestSigma1:
    def test_below_the_facet(self):
        assert not sigma1_check(mono(1, 1), WEIGHTED)

    def test_on_the_facet(self):
        assert sigma1_check(mono(2, 0), WEIGHTED)

    def test_ideal_element(self):
        assert sigma1_check(mono(1, 2) + mono(0, 3), WEIGHTED)


class TestBasicFacts:
    def test_inner_span_passes_everywhere(self):
        pair = delta_pair_of_ideal(CORNER)
        probe = tuple(
            a + b for a, b in zip(pair.inner[0], pair.inner[1])
        )
        outcomes = basic_facts_check(pair, [probe])
        assert outcomes[0].passes

    def test_unit_component_refuted_by_first_arc(self):
        # N the full free module, M inside m*F: a probe with a unit entry
        # cannot be in the relative closure.
        one = SparsePoly.constant(2, 1)
        zero = SparsePoly.zero(2)
        pair = SubmodulePair(
            rank=2,
            inner=tuple((g, g) for g in CORNER.generator_polys()),
            outer=((one, zero), (zero, one)),
        )
        outcomes = basic_facts_check(pair, [(one, zero)])
        assert not outcomes[0].passes
        assert outcomes[0].refutation.index == 0

    def test_diagonal_of_ideal_element_passes(self):
        pair = delta_pair_of_ideal(CORNER)
        h = mono(0, 2)
        outcomes = basic_facts_check(pair, [(h, h)])
        assert outcomes[0].passes
