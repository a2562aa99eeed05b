"""Asymptotic Samuel function, integral closure, and the strict-valuation
ideal of a monomial ideal.

For a finite-colength monomial ideal the asymptotic Samuel function is
computed from the Rees valuations as vbar(f) = min_j v_j(f) / v_j(I), the
integral closure collects the monomials whose exponents lie in the Newton
polyhedron, and i_greater collects those strictly above every bounded
facet.  Both are up-sets cut out by the bounded facets, so each is fixed
by its least last exponent over every prefix of the other exponents, and
one staircase walk over the facets emits its minimal generators.
Polynomial tests are termwise, since a monomial valuation of a polynomial
is the minimum over its terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .errors import DimensionMismatch, UnsupportedIdeal
from .ideals import MonomialIdeal, staircase_corners
from .newton import ReesValuation, rees_valuations
from .poly import SparsePoly


def _require_finite_colength(ideal: MonomialIdeal) -> List[ReesValuation]:
    if ideal.is_zero or ideal.is_unit or not ideal.finite_colength:
        raise UnsupportedIdeal("operation needs a proper finite-colength ideal")
    return rees_valuations(ideal)


def vbar(f: SparsePoly, ideal: MonomialIdeal) -> Fraction | float:
    """Asymptotic Samuel value min_j v_j(f)/v_j(I); math.inf for f = 0."""
    vals = _require_finite_colength(ideal)
    if f.nvars != ideal.nvars:
        raise DimensionMismatch("polynomial and ideal variable counts differ")
    if f.is_zero:
        return math.inf
    return min(Fraction(v.value(f), v.value_on_ideal) for v in vals)


def facet_staircase(ideal: MonomialIdeal, slack: int):
    """(bounds, least) of the monomials e with <w, e> >= v + slack on every
    bounded facet <w, e> >= v, for staircase_walk and staircase_corners.

    least(p) = max(0, max_w ceil((v + slack - <w', p>) / w_n)) is the least
    last exponent above the prefix p.  The pure powers x_i^(a_i + slack)
    pass every facet, so the generator prefixes lie in the box p_i <=
    a_i + slack.
    """
    vals = _require_finite_colength(ideal)
    facets = [(v.weight[:-1], v.weight[-1], v.value_on_ideal + slack) for v in vals]

    def least(p) -> int:
        return max(
            0, *(-((sum(a * b for a, b in zip(w, p)) - v) // wn) for w, wn, v in facets)
        )

    bounds = [k + slack + 1 for k in ideal.axis_degrees()[:-1]]
    return bounds, least


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Monomials whose exponents lie in the Newton polyhedron, read off the
    corners of one staircase walk over the bounded facets."""
    return MonomialIdeal(ideal.nvars, staircase_corners(*facet_staircase(ideal, 0)))


def i_greater(ideal: MonomialIdeal) -> MonomialIdeal:
    """Monomials strictly above every bounded facet: v_j > v_j(I) for all j,
    i.e. v_j >= v_j(I) + 1, by the same walk as integral_closure."""
    return MonomialIdeal(ideal.nvars, staircase_corners(*facet_staircase(ideal, 1)))


def in_integral_closure(f: SparsePoly, ideal: MonomialIdeal) -> bool:
    """True iff every term of f passes every Rees-valuation bound."""
    vals = _require_finite_colength(ideal)
    if f.nvars != ideal.nvars:
        raise DimensionMismatch("polynomial and ideal variable counts differ")
    return all(
        v.value_of_exponent(e) >= v.value_on_ideal for e, _ in f.items() for v in vals
    )


def in_i_greater(f: SparsePoly, ideal: MonomialIdeal) -> bool:
    vals = _require_finite_colength(ideal)
    if f.nvars != ideal.nvars:
        raise DimensionMismatch("polynomial and ideal variable counts differ")
    return all(
        v.value_of_exponent(e) > v.value_on_ideal for e, _ in f.items() for v in vals
    )
