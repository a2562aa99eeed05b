"""Reductions, multiplicity, cores, and weak subintegral closures of
minimal reductions.

A subideal J of I is a reduction when the two ideals have the same integral
closure; for monomial ideals that is exactly equality of Newton polyhedra.
Parameter (possibly non-monomial) candidates are tested through the
multiplicity criterion: an n-generated m-primary J inside I is a reduction
iff its colength equals the multiplicity of I, and the colength is computed
by exact linear algebra in truncations A/m^N, with N grown until the
dimension stabilizes (which forces m^N into J) or exceeds the multiplicity
(which rules J out, the colength being at least that dimension).

For a minimal reduction J of a finite-colength I the weak subintegral
closure of J is J + i_greater(I); membership is decided exactly in a
truncation A/m^N once m^N lies inside i_greater(I).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import product
from math import factorial

from .closure import facet_staircase, i_greater, integral_closure
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionError,
    TruncationTooSmall,
    UnsupportedIdeal,
)
from .ideals import MonomialIdeal, staircase_walk
from .linalg import Echelon, Row, intersect_row_spaces
from .newton import newton_polyhedron
from .poly import Exponent, SparsePoly


class PolyIdeal(namedtuple("PolyIdeal", "nvars gens")):
    """A finitely generated polynomial ideal, used in m-primary workflows."""

    __slots__ = ()

    def __new__(cls, nvars: int, gens: tuple[SparsePoly, ...]):
        if not gens:
            raise ValueError("PolyIdeal needs at least one generator")
        if any(g.nvars != nvars for g in gens):
            raise DimensionMismatch("generator lives in the wrong ring")
        return super().__new__(cls, nvars, gens)

    @classmethod
    def from_monomial(cls, ideal: MonomialIdeal) -> "PolyIdeal":
        return cls(ideal.nvars, tuple(ideal.generator_polys()))

    def to_string(self, names=None) -> str:
        return "(" + ", ".join(g.to_string(names) for g in self.gens) + ")"


def _box_monomials(nvars: int, below: int) -> list[Exponent]:
    """All exponents of total degree < below, in graded-lex order."""
    out = [
        e
        for e in product(*(range(below) for _ in range(nvars)))
        if sum(e) < below
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


class TruncatedQuotient:
    """Row space of an ideal's image in A/m^N over the standard monomials
    of degree < N, kept in reduced echelon form over the rationals."""

    def __init__(
        self,
        nvars: int,
        order: int,
        generators: Iterable[SparsePoly] = (),
        rows: Iterable[Row] | None = None,
    ):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.nvars = nvars
        self.order = order
        self.echelon = Echelon()
        if rows is not None:
            for row in rows:
                self.echelon.add_row(dict(row))
        for g in generators:
            if g.nvars != nvars:
                raise DimensionMismatch("generator lives in the wrong ring")
            for e in _box_monomials(nvars, order):
                shifted = self._truncate_shift(g, e)
                if shifted:
                    self.echelon.add_row(shifted)

    def _truncate_shift(self, g: SparsePoly, shift: Exponent) -> Row:
        row: Row = {}
        for exp, coeff in g.items():
            total = tuple(a + b for a, b in zip(exp, shift))
            if sum(total) < self.order:
                row[total] = row.get(total, Fraction(0)) + coeff
        return {k: v for k, v in row.items() if v != 0}

    def truncate(self, f: SparsePoly) -> Row:
        return self._truncate_shift(f, (0,) * self.nvars)

    def contains(self, f: SparsePoly) -> bool:
        """Membership modulo m^order."""
        return self.echelon.contains(self.truncate(f))

    def quotient_dim(self) -> int:
        return len(_box_monomials(self.nvars, self.order)) - self.echelon.rank

    def basis_rows(self) -> list[SparsePoly]:
        return [SparsePoly(self.nvars, row) for row in self.echelon.rows()]

    def same_row_space(self, other: "TruncatedQuotient") -> bool:
        return self.order == other.order and self.echelon.same_space(other.echelon)


# -- reduction tests ---------------------------------------------------------


def is_reduction_monomial(J: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Newton-polyhedron equality test for J inside I.

    Equivalently the two ideals share every Rees valuation value; comparing
    full facet descriptions also covers ideals of infinite colength.
    """
    if J.nvars != I.nvars:
        raise DimensionMismatch("mixed variable counts")
    if not I.contains_ideal(J):
        raise PreconditionError("candidate reduction is not contained in the ideal")
    if J.is_zero or I.is_zero:
        return J.is_zero and I.is_zero
    return newton_polyhedron(J) == newton_polyhedron(I)


def multiplicity(I: MonomialIdeal) -> int:
    """n! times the covolume of the Newton polyhedron, computed exactly.

    The complement of NP(I) in the orthant is star-shaped from the origin,
    so the covolume is the sum of the cone volumes over the bounded facets.
    """
    if I.nvars > 3:
        raise UnsupportedIdeal("multiplicity implemented for at most 3 variables")
    if I.is_zero or I.is_unit or not I.finite_colength:
        raise UnsupportedIdeal("multiplicity needs a proper finite-colength ideal")
    np = newton_polyhedron(I)
    n = I.nvars
    covol = Fraction(0)
    for facet in np.bounded_facets():
        verts = [
            v
            for v in np.vertices
            if sum(w * e for w, e in zip(facet.normal, v)) == facet.value
        ]
        covol += _cone_volume(n, verts)
    result = factorial(n) * covol
    if result.denominator != 1:
        raise AssertionError("covolume times n! must be an integer")
    return int(result)


def _cone_volume(n: int, verts: list[Exponent]) -> Fraction:
    if n == 1:
        (v,) = verts
        return Fraction(v[0])
    if n == 2:
        a, b = verts
        return Fraction(abs(a[0] * b[1] - a[1] * b[0]), 2)
    ordered = _polygon_order(verts)
    total = Fraction(0)
    v0 = ordered[0]
    for a, b in zip(ordered[1:], ordered[2:]):
        total += Fraction(abs(_det3(v0, a, b)), 6)
    return total


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _polygon_order(verts: list[Exponent]) -> list[Exponent]:
    """Cyclic order of the vertices of a planar convex polygon in 3-space
    with strictly positive normal: project out z and walk the 2D hull."""
    flat = {(v[0], v[1]): v for v in verts}
    pts = sorted(flat)
    if len(pts) <= 2:
        return [flat[p] for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    return [flat[p] for p in cycle]


def colength_poly(J: PolyIdeal, cap: int = 64, stop_above: int | None = None) -> int:
    """Colength of an m-primary polynomial ideal by truncation stabilization.

    d_N = dim A/(J + m^N) is computed for growing N; two equal consecutive
    values force m^N inside J locally (Nakayama), so the dimension has
    converged.  Every d_N is at most the colength, so with `stop_above` the
    walk ends at the first d_N > stop_above and returns that d_N, which the
    colength (infinite when J is not m-primary) exceeds as well.
    """
    prev: int | None = None
    for order in range(1, cap + 1):
        dim = TruncatedQuotient(J.nvars, order, J.gens).quotient_dim()
        if dim == prev or (stop_above is not None and dim > stop_above):
            return dim
        prev = dim
    raise BudgetExceeded(
        f"no colength stabilization below truncation order {cap}; "
        "the ideal is likely not m-primary"
    )


def is_reduction_parameter(J: PolyIdeal, I: MonomialIdeal) -> bool:
    """Multiplicity criterion for an n-generated parameter ideal J in I.

    Write A for the polynomial ring localized at the origin and
    d_N = dim A/(J + m^N).  Then:

    - l(A/J) >= d_N for every N, since J lies inside J + m^N.
    - If J is m-primary, it is generated by a system of parameters of the
      regular, hence Cohen-Macaulay, ring A, so l(A/J) = e(J).  And J inside
      I gives e(J) >= e(I), with equality iff J is a reduction of I (Rees
      1961).  So J is a reduction iff l(A/J) = e(I).
    - If J is not m-primary, it is no reduction (a reduction has the radical
      of I), and l(A/J) is infinite.

    So d_N > e(I) proves that J is not a reduction, and the walk stops
    there.  Before it stabilizes, d_N grows strictly from d_1 = 1: an equal
    step d_(N+1) = d_N puts m^N inside J + m^(N+1), hence inside J
    (Nakayama).  So the walk takes at most e(I) + 1 truncations, and the cap
    of colength_poly binds only when e(I) >= 64.
    """
    if J.nvars != I.nvars:
        raise DimensionMismatch("mixed variable counts")
    if len(J.gens) != I.nvars:
        raise PreconditionError("parameter ideal needs exactly n generators")
    for g in J.gens:
        if not I.contains(g):
            raise PreconditionError(
                "parameter generator is not contained in the ideal termwise"
            )
    e = multiplicity(I)
    return colength_poly(J, stop_above=e) == e


def core_via_colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The two-variable core formula J^2 : I for a 2-generated reduction J."""
    if I.nvars != 2:
        raise UnsupportedIdeal("the colon formula for the core is two-variable")
    if len(J.gens) != 2:
        raise PreconditionError("the formula needs a 2-generated reduction")
    if not is_reduction_monomial(J, I):
        raise PreconditionError("J is not a reduction of I")
    return J.power(2).colon(I)


# -- weak subintegral closures of minimal reductions ---------------------------


def igt_truncation_order(I: MonomialIdeal) -> int:
    """Least N with m^N inside i_greater(I): one more than the largest
    degree |p| + least(p) - 1 of a monomial below the i_greater staircase."""
    return max(
        (sum(p) + k for p, k in staircase_walk(*facet_staircase(I, 1)) if k), default=1
    )


class StarOfReduction(
    namedtuple("StarOfReduction", "reduction ideal igt order quotient")
):
    """Membership handle for J + i_greater(I), exact in A/m^N: the reduction
    J, the ideal I, i_greater(I), the order N and the TruncatedQuotient."""

    __slots__ = ()

    def contains(self, h: SparsePoly) -> bool:
        return self.quotient.contains(h)


def star_of_min_reduction(
    J: PolyIdeal | MonomialIdeal, I: MonomialIdeal, order: int | None = None
) -> StarOfReduction:
    """Represent the weak subintegral closure J + i_greater(I) of a minimal
    reduction J, with an exact membership test.

    An explicit truncation `order` may only enlarge the computed one (the
    membership argument needs m^order inside i_greater(I))."""
    if isinstance(J, MonomialIdeal):
        if len(J.gens) != I.nvars:
            raise PreconditionError("minimal reduction needs exactly n generators")
        if not is_reduction_monomial(J, I):
            raise PreconditionError("J is not a reduction of I")
        J = PolyIdeal.from_monomial(J)
    else:
        if not is_reduction_parameter(J, I):
            raise PreconditionError("J is not a reduction of I")
    if not I.finite_colength:
        raise UnsupportedIdeal("finite colength required")
    igt = i_greater(I)
    minimal_order = igt_truncation_order(I)
    if order is None:
        order = minimal_order
    elif order < minimal_order:
        raise TruncationTooSmall(
            f"truncation {order} is below the exactness order {minimal_order}"
        )
    quotient = TruncatedQuotient(
        I.nvars, order, list(J.gens) + igt.generator_polys()
    )
    return StarOfReduction(
        reduction=J, ideal=I, igt=igt, order=order, quotient=quotient
    )


def dim_i_mod_igt(I: MonomialIdeal) -> int:
    """Number of monomials of I sitting on some bounded facet, i.e. the
    k-dimension of I modulo (i_greater(I) intersect I)."""
    if I.is_zero or I.is_unit or not I.finite_colength:
        raise UnsupportedIdeal("finite colength required")
    np = newton_polyhedron(I)
    seen = set()
    for facet in np.bounded_facets():
        for e in _facet_lattice_points(facet.normal, facet.value):
            if I.contains_exponent(e):
                seen.add(e)
    return len(seen)


def _facet_lattice_points(normal: tuple[int, ...], value: int):
    """Nonnegative integer points with <normal, e> == value (normal > 0)."""
    n = len(normal)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if remaining % normal[i] == 0:
                yield prefix + (remaining // normal[i],)
            return
        for k in range(remaining // normal[i] + 1):
            yield from rec(i + 1, remaining - k * normal[i], prefix + (k,))

    yield from rec(0, value, ())


class ReductionsClass(enum.Enum):
    EVERY_REDUCTION_STAR_EQUALS_I = "EveryReductionStarEqualsI"
    INTERSECTION_IS_I_GREATER = "IntersectionIsIGreater"


def classify_reductions(I: MonomialIdeal) -> ReductionsClass:
    """Dichotomy for integrally closed finite-colength ideals: when the
    facet monomial count equals the dimension, every reduction has the same
    weak subintegral closure I; otherwise the closures intersect in
    i_greater(I)."""
    if I.nvars > 3:
        raise UnsupportedIdeal("classification implemented for at most 3 variables")
    if I.is_zero or I.is_unit or not I.finite_colength:
        raise UnsupportedIdeal("finite colength required")
    if integral_closure(I) != I:
        raise PreconditionError("classification needs an integrally closed ideal")
    if dim_i_mod_igt(I) == I.nvars:
        return ReductionsClass.EVERY_REDUCTION_STAR_EQUALS_I
    return ReductionsClass.INTERSECTION_IS_I_GREATER


def intersect_star_two(
    J1: PolyIdeal, J2: PolyIdeal, I: MonomialIdeal
) -> TruncatedQuotient:
    """Exact echelon basis of (J1 + i_greater(I)) intersect (J2 + i_greater(I))
    in degrees below the i_greater truncation order."""
    star1 = star_of_min_reduction(J1, I)
    star2 = star_of_min_reduction(J2, I)
    rows = intersect_row_spaces(
        star1.quotient.echelon.rows(), star2.quotient.echelon.rows()
    )
    return TruncatedQuotient(I.nvars, star1.order, rows=rows)


def reduction_from_igt(J: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Reduction test through the augmented ideal J + (i_greater(I) ^ I).

    Adding the part of i_greater(I) inside I never changes whether J is a
    reduction, so both routes are computed and compared.
    """
    if not I.contains_ideal(J):
        raise PreconditionError("J must be contained in I")
    augmented = J + i_greater(I).intersect(I)
    via_augmented = is_reduction_monomial(augmented, I)
    plain = is_reduction_monomial(J, I)
    if via_augmented != plain:
        raise AssertionError("augmented and plain reduction tests disagree")
    return plain
