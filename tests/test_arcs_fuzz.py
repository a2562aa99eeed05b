"""Property tests: the truncated pullback agrees with SparsePoly.compose
cut at the same order, and the cached fast path for the ideal pair agrees
with the elimination oracle ideal_pair_by_elimination, for multi-term
elements whose terms cancel along the arcs and for arbitrary arc pairs,
whose modules take every shape: a line, the plane, a dead slot.  Elements
with terms at, just above and below the module's orders check the pairs
that the fast path decides on the arcs' component orders alone.  The
refuter, which walks a cached module table per ideal, agrees with the
per-pair tests over the whole stream, cold, warm and after its caches are
emptied."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from subintegral import (
    ArcPair,
    ArcSampler,
    LocalArc,
    MonomialIdeal,
    arc_pair_stream,
    ideal_pair_membership,
    pullback,
    pullback_order,
    refute_star_membership,
)
from subintegral.arcs import Refutation, _ideal_arc_module, _module_table, _shared_stream
from subintegral.poly import SparsePoly

from oracles import ideal_pair_by_elimination

COEFFS = [1, -1, 2, -2, Fraction(1, 2), 3]


@st.composite
def components(draw):
    """An arc component: zero, one of a few shared series (so that terms of
    h cancel after pullback), or a random short series."""
    pool = [{}, {1: 1}, {1: -1}, {1: 2}, {2: 1}, {1: 1, 2: 1}, {1: 1, 2: -1}]
    terms = draw(
        st.one_of(
            st.sampled_from(pool),
            st.dictionaries(
                st.integers(1, 3), st.sampled_from(COEFFS), max_size=2
            ),
        )
    )
    return SparsePoly(1, {(d,): c for d, c in terms.items()})


@st.composite
def polys(draw, n, min_size=1, max_size=5):
    """A sum of terms, which may cancel in the sum or along an arc."""
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(
        st.lists(
            st.tuples(exponent, st.sampled_from(COEFFS)),
            min_size=min_size,
            max_size=max_size,
        )
    )
    f = SparsePoly.zero(n)
    for e, c in terms:
        f = f + SparsePoly.monomial(e, c)
    return f


@st.composite
def pullback_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    arc = LocalArc(tuple(draw(components()) for _ in range(n)))
    return draw(polys(n)), arc, draw(st.sampled_from([*range(9), math.inf]))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(pullback_cases())
def test_truncated_pullback_matches_compose(case):
    f, arc, order = case
    full = f.compose(list(arc.components))
    assert pullback(f, arc, order) == SparsePoly(
        1, {e: c for e, c in full.items() if e[0] < order}
    )
    assert pullback_order(f, arc) == (math.inf if full.is_zero else full.min_degree())


@st.composite
def cases(draw):
    n = draw(st.sampled_from([2, 3]))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponent.filter(any), min_size=1, max_size=4))
    if draw(st.booleans()):  # finite colength, as the refuter requires
        gens += [tuple(a if j == i else 0 for j in range(n))
                 for i, a in enumerate(draw(st.tuples(*[st.integers(1, 4)] * n)))]
    I = MonomialIdeal(n, gens)
    h = draw(polys(n, min_size=2, max_size=4))
    arcs = ArcPair(
        LocalArc(tuple(draw(components()) for _ in range(n))),
        LocalArc(tuple(draw(components()) for _ in range(n))),
    )
    return h, I, arcs


def test_fast_path_matches_general_path():
    # The draws must reach both shapes of the module in Q^2, a line and the
    # whole plane, as well as dead slots.
    kinds = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        h, I, arcs = case
        assert ideal_pair_membership(h, I, arcs) == ideal_pair_by_elimination(h, I, arcs)
        e, f, slope = _ideal_arc_module(I, arcs)
        kinds.add("dead" if math.inf in (e, f) else "plane" if slope is None else "line")

    check()
    assert kinds == {"dead", "line", "plane"}


@st.composite
def near_order_cases(draw):
    """h built from terms at, just above and below the module's orders: the
    generators of I (one of them attains e), generators times a variable,
    random monomials, and x_i * m - x_j * m, which cancels along an arc whose
    components i and j agree.  Sometimes h is 0."""
    n = draw(st.sampled_from([2, 3]))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponent.filter(any), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens += [tuple(a if j == i else 0 for j in range(n))
                 for i, a in enumerate(draw(st.tuples(*[st.integers(1, 4)] * n)))]
    I = MonomialIdeal(n, gens)
    first = [draw(components()) for _ in range(n)]
    if draw(st.booleans()):
        first[1] = first[0]
    arcs = ArcPair(
        LocalArc(tuple(first)), LocalArc(tuple(draw(components()) for _ in range(n)))
    )

    def times(e, i):
        return tuple(k + (j == i) for j, k in enumerate(e))

    pool = list(I.gens) + [times(g, i) for g in I.gens for i in range(n)]
    h = SparsePoly.zero(n)
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.one_of(st.sampled_from(pool), exponent))
        h = h + SparsePoly.monomial(e, draw(st.sampled_from(COEFFS)))
    if draw(st.booleans()):
        m = draw(st.sampled_from(pool))
        h = h + SparsePoly.monomial(times(m, 0)) - SparsePoly.monomial(times(m, 1))
    return h, I, arcs


def test_order_shortcut_matches_general_path():
    # The draws must reach pairs decided on the orders alone and pairs that
    # need a pullback, terms exactly at a finite order, terms that cancel
    # along an arc, dead slots, and zero and two-term arc components.
    kinds = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(near_order_cases())
    def check(case):
        h, I, arcs = case
        verdict = ideal_pair_membership(h, I, arcs)
        assert verdict == ideal_pair_by_elimination(h, I, arcs)
        e, f, _ = _ideal_arc_module(I, arcs)
        terms = [SparsePoly.monomial(exp, c) for exp, c in h.items()]
        for arc, order in zip(arcs, (e, f)):
            lows = [pullback_order(t, arc) for t in terms]
            if order < math.inf and order in lows:
                kinds.add("at order")
            if pullback_order(h, arc) > min(lows, default=math.inf):
                kinds.add("cancel")
            if any(c.is_zero for c in arc):
                kinds.add("zero component")
            if any(c.num_terms() == 2 for c in arc):
                kinds.add("two-term component")
        above = all(
            low > order or low == math.inf
            for arc, order in zip(arcs, (e, f))
            for low in (pullback_order(t, arc) for t in terms)
        )
        assert verdict or not above
        kinds.add("orders" if above else "pullback")
        kinds.add(f"{verdict}")
        if math.inf in (e, f):
            kinds.add("dead")
        if h.is_zero:
            kinds.add("zero h")

    check()
    assert kinds == {
        "orders", "pullback", "True", "False", "at order", "cancel", "dead",
        "zero component", "two-term component", "zero h",
    }


def first_failure(h, I, sampler, holds=ideal_pair_by_elimination):
    """The refuter's answer, pair by pair through one per-pair test: the
    elimination oracle unless another is given."""
    for index, arcs in enumerate(arc_pair_stream(I.nvars, sampler)):
        if not holds(h, I, arcs):
            return Refutation(pair=arcs, index=index)
    return None


def between(I):
    """The points halfway between two generators, rounded down and up: on
    or near the Newton boundary, where sampled pairs refute."""
    return sorted({
        tuple((a + b + up) // 2 for a, b in zip(g, k))
        for g in I.gens for k in I.gens if g < k for up in (0, 1)
    })


@st.composite
def refuter_cases(draw):
    """A finite-colength ideal in 1-3 variables, two elements of 0-3 terms
    and a sampler.  The first element is often a unit, a variable or a
    generator's neighbour, which the stream's prefix refutes early; the
    second sometimes has two terms that cancel along an arc whose
    components agree.  Terms come from the generators, their neighbours,
    the points between two generators, or anywhere."""
    n = draw(st.sampled_from([1, 2, 3]))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = [tuple(a if j == i else 0 for j in range(n))
            for i, a in enumerate(draw(st.tuples(*[st.integers(1, 5)] * n)))]
    gens += draw(st.lists(exponent.filter(any), max_size=2))
    I = MonomialIdeal(n, gens)

    def times(e, i):
        return tuple(k + (j == i) for j, k in enumerate(e))

    pool = list(I.gens) + [times(g, i) for g in I.gens for i in range(n)]
    pool += [(0,) * n, times((0,) * n, 0)] + between(I)

    def element(low, high):
        h = SparsePoly.zero(n)
        for _ in range(draw(st.integers(low, high))):
            e = draw(st.one_of(st.sampled_from(pool), exponent))
            h = h + SparsePoly.monomial(e, draw(st.sampled_from(COEFFS)))
        return h

    early = element(1, 2)
    h = element(0, 3)
    if n > 1 and draw(st.booleans()):
        m = draw(st.sampled_from(pool))
        h = h + SparsePoly.monomial(times(m, 0)) - SparsePoly.monomial(times(m, 1))
    count = draw(st.one_of(st.integers(1, 150), st.sampled_from([100, 150])))
    sampler = ArcSampler(seed=draw(st.integers(0, 3)), count=count)
    return I, early, h, sampler


def clear_caches():
    for cache in (_module_table, _ideal_arc_module, _shared_stream):
        cache.cache_clear()


def test_refuter_matches_per_pair_oracle():
    # Each case runs cold, warm, after an early refutation on the same
    # table, on a fresh equal ideal after each cache is emptied, and for the
    # monomials between two generators on the warm table.  The walks of h
    # and of the early element are decided by the elimination oracle; the
    # many monomials between generators by ideal_pair_membership, which the
    # tests above check against that oracle.  The draws must
    # reach refutations at dead-slot pairs and at pairs with a finite
    # module, among them a pair whose first slot h vanishes in while the
    # second has unequal component orders; inconclusive walks; an early
    # refutation followed by a longer walk; and h = 0.
    kinds = set()

    def note(h, I, refutation):
        if refutation is None:
            kinds.add("inconclusive")
            return
        e, f, _ = _ideal_arc_module(I, refutation.pair)
        kinds.add("dead slot" if math.inf in (e, f) else "finite module")
        first, second = refutation.pair
        if first.orders != second.orders and all(
            pullback_order(SparsePoly.monomial(exp), first) > e for exp, _ in h.items()
        ):
            kinds.add("first slot above its order")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(refuter_cases())
    def check(case):
        I, early, h, sampler = case
        expected = first_failure(h, I, sampler)
        clear_caches()
        assert refute_star_membership(h, I, sampler) == expected  # cold
        assert refute_star_membership(h, I, sampler) == expected  # warm

        clear_caches()
        first = refute_star_membership(early, I, sampler)
        assert first == first_failure(early, I, sampler)
        assert refute_star_membership(h, I, sampler) == expected
        reached = sampler.count if expected is None else expected.index + 1
        if first is not None and first.index + 1 < reached:
            kinds.add("early, then further")

        # A fresh ideal equal to I finds the table built for I.
        again = MonomialIdeal(I.nvars, I.gens)
        for cache in (_ideal_arc_module, _module_table, _shared_stream):
            cache.cache_clear()
            assert refute_star_membership(h, again, sampler) == expected
            assert refute_star_membership(early, again, sampler) == first

        for exp in between(I):
            m = SparsePoly.monomial(exp)
            refutation = refute_star_membership(m, I, sampler)
            assert refutation == first_failure(m, I, sampler, ideal_pair_membership)
            note(m, I, refutation)
        note(h, I, expected)
        if h.is_zero:
            kinds.add("zero h")

    check()
    assert kinds == {
        "early, then further", "inconclusive", "dead slot", "finite module", "zero h",
        "first slot above its order",
    }
