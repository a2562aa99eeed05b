"""Property tests: the triangulated multiplicity against independent oracles.

On random finite-colength ideals in two to four variables the sum of
determinants over the pulling triangulation equals the Hilbert-Samuel
difference of tests/oracles.py; in one to five variables it does not change
when the variables are permuted; and the Bareiss determinant agrees with
sympy on random integer matrices, singular ones included.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from subintegral import MonomialIdeal, multiplicity
from subintegral.reductions import _det

from oracles import multiplicity_by_hilbert_samuel

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


@st.composite
def ideals(draw, nvars, top):
    """Axis degrees 1 to top(n) plus up to three mixed generators; each has
    two or more nonzero exponents, all below the axis degrees, so it
    divides no pure power."""
    n = draw(nvars)
    axes = draw(st.tuples(*[st.integers(1, top(n))] * n))
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(axes)]
    if sum(a > 1 for a in axes) >= 2:
        below = st.tuples(*[st.integers(0, a - 1) for a in axes])
        inside = below.filter(lambda e: sum(map(bool, e)) >= 2)
        gens += draw(st.lists(inside, min_size=1, max_size=3))
    return MonomialIdeal(n, gens)


@SETTINGS
@hypothesis.given(ideals(st.sampled_from([2, 3, 4]), lambda n: 3))
def test_matches_hilbert_samuel_difference(I):
    assert multiplicity(I) == multiplicity_by_hilbert_samuel(I)


@SETTINGS
@hypothesis.given(ideals(st.integers(1, 5), lambda n: 6), st.data())
def test_invariant_under_permuted_variables(I, data):
    perm = data.draw(st.permutations(range(I.nvars)))
    permuted = MonomialIdeal(I.nvars, [tuple(g[p] for p in perm) for g in I.gens])
    assert multiplicity(permuted) == multiplicity(I)


@st.composite
def square_matrices(draw):
    """Integer n x n matrices, n = 1-6; about half are made singular by
    replacing the last row with an integer combination of the others."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    return rows


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(square_matrices())
def test_det_matches_sympy(rows):
    assert _det(rows) == sympy.Matrix(rows).det()
