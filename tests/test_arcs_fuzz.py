"""Property test: the cached fast path for the ideal pair agrees with the
general truncated test on delta_pair_of_ideal, for multi-term elements whose
terms cancel along the arcs and for arbitrary arc pairs."""

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
    relative_membership,
)
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
def cases(draw):
    n = draw(st.sampled_from([2, 3]))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponent.filter(any), min_size=1, max_size=4))
    if draw(st.booleans()):  # finite colength, as the refuter requires
        gens += [tuple(a if j == i else 0 for j in range(n))
                 for i, a in enumerate(draw(st.tuples(*[st.integers(1, 4)] * n)))]
    I = MonomialIdeal(n, gens)
    terms = draw(
        st.lists(st.tuples(exponent, st.sampled_from(COEFFS)), min_size=2, max_size=4)
    )
    h = SparsePoly.zero(n)
    for e, c in terms:
        h = h + SparsePoly.monomial(e, c)
    arcs = ArcPair(
        LocalArc(tuple(draw(components()) for _ in range(n))),
        LocalArc(tuple(draw(components()) for _ in range(n))),
    )
    return h, I, arcs


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(cases())
def test_fast_path_matches_general_path(case):
    h, I, arcs = case
    assert ideal_pair_membership(h, I, arcs) == relative_membership(
        (h, h), delta_pair_of_ideal(I), arcs
    )
