"""Property tests: the staircase walk agrees with the box scans it replaced.

On random finite-colength ideals in one to three variables the walked
integral closure, i_greater, i_greater truncation order and colength match
the point-by-point box scans of tests/oracles.py, closure generators and
the points just below them agree with brute-force Minkowski sums, and the
sort-based antichain matches the quadratic definition.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from subintegral import MonomialIdeal, i_greater, integral_closure
from subintegral.closure import facet_staircase
from subintegral.ideals import _antichain, _dominates, staircase_corners
from subintegral.reductions import igt_truncation_order

from oracles import (
    closure_member_minkowski,
    colength_by_box_count,
    scan_box,
    truncation_order_by_degree,
)

SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


@st.composite
def ideals(draw):
    """Axis degrees 1-8 plus 0-4 mixed generators; never the unit ideal."""
    n = draw(st.sampled_from([1, 2, 3]))
    axes = draw(st.tuples(*[st.integers(1, 8)] * n))
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(axes)]
    exponent = st.tuples(*[st.integers(0, 8)] * n).filter(any)
    gens += draw(st.lists(exponent, max_size=4))
    return MonomialIdeal(n, gens)


@SETTINGS
@hypothesis.given(ideals())
def test_walk_matches_box_scan(I):
    for slack, walked in ((0, integral_closure(I)), (1, i_greater(I))):
        box = scan_box(I, slack)
        assert walked == box
        # The corners are the minimal generators themselves, not a superset.
        assert tuple(staircase_corners(*facet_staircase(I, slack))) == box.gens
    assert igt_truncation_order(I) == truncation_order_by_degree(I)


@SETTINGS
@hypothesis.given(ideals())
def test_colength_matches_box_count(I):
    assert I.colength() == colength_by_box_count(I)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(ideals(), st.data())
def test_closure_corners_match_minkowski(I, data):
    """A drawn closure generator is a Minkowski member; one step below it
    along a used axis is not."""
    g = data.draw(st.sampled_from(integral_closure(I).gens))
    assert closure_member_minkowski(g, I.gens)
    i = data.draw(st.sampled_from([i for i, c in enumerate(g) if c]))
    below = g[:i] + (g[i] - 1,) + g[i + 1:]
    assert not closure_member_minkowski(below, I.gens)


@st.composite
def exponent_multisets(draw):
    """Small exponents, so that duplicates and dominations are common."""
    n = draw(st.sampled_from([1, 2, 3]))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12))
    if exps:
        exps += draw(st.lists(st.sampled_from(exps), max_size=4))
    return exps


@SETTINGS
@hypothesis.given(exponent_multisets())
def test_antichain_matches_quadratic_reference(exps):
    minimal = {e for e in exps if not any(f != e and _dominates(e, f) for f in exps)}
    assert _antichain(exps) == tuple(sorted(minimal))
