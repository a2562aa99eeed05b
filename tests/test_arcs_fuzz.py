"""Property tests: the truncated pullback agrees with SparsePoly.compose
cut at the same order, and the cached fast path for the ideal pair agrees
with the general truncated test on delta_pair_of_ideal, for multi-term
elements whose terms cancel along the arcs and for arbitrary arc pairs,
whose modules take every shape: a line, the plane, a dead slot.  Elements
with terms at, just above and below the module's orders check the pairs
that the fast path decides on the arcs' component orders alone."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from subintegral import (
    ArcPair,
    LocalArc,
    MonomialIdeal,
    delta_pair_of_ideal,
    ideal_pair_membership,
    pullback,
    pullback_order,
    relative_membership,
)
from subintegral.arcs import _ideal_arc_module
from subintegral.poly import SparsePoly

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
        assert ideal_pair_membership(h, I, arcs) == relative_membership(
            (h, h), delta_pair_of_ideal(I), arcs
        )
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
        assert verdict == relative_membership((h, h), delta_pair_of_ideal(I), arcs)
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
