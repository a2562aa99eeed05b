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

The multiplicity, in any number of variables, sums the integer |det| of
the simplices of a pulling triangulation of the bounded facets of NP(I).

For a minimal reduction J of a finite-colength I the weak subintegral
closure of J is J + i_greater(I); membership is decided exactly in a
truncation A/m^N once m^N lies inside i_greater(I).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable
from itertools import product
from math import comb

from .closure import facet_staircase, i_greater, integral_closure
from .errors import BudgetExceeded, DimensionMismatch, PreconditionError, UnsupportedIdeal
from .ideals import MonomialIdeal, PolyIdeal, staircase_walk
from .linalg import Echelon, Row, intersect_row_spaces
from .newton import newton_polyhedron
from .poly import Exponent, SparsePoly


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
    of degree < N, kept in echelon form over the rationals: the rows are
    the truncated shifts x^e g of the generators g, for every |e| < N."""

    def __init__(self, nvars: int, order: int, generators: Iterable[SparsePoly]):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.nvars = nvars
        self.order = order
        self.echelon = Echelon()
        box = _box_monomials(nvars, order)
        for g in generators:
            if g.nvars != nvars:
                raise DimensionMismatch("generator lives in the wrong ring")
            for e in box:
                shifted = self._truncate_shift(g, e)
                if shifted:
                    self.echelon.add_row(shifted)

    def _truncate_shift(self, g: SparsePoly, shift: Exponent) -> Row:
        # Distinct exponents of g shift to distinct exponents, each once.
        row: Row = {}
        for exp, coeff in g.items():
            total = tuple(a + b for a, b in zip(exp, shift))
            if sum(total) < self.order:
                row[total] = coeff
        return row

    def truncate(self, f: SparsePoly) -> Row:
        return self._truncate_shift(f, (0,) * self.nvars)

    def contains(self, f: SparsePoly) -> bool:
        """Membership modulo m^order."""
        return self.echelon.contains(self.truncate(f))

    def quotient_dim(self) -> int:
        return comb(self.nvars + self.order - 1, self.nvars) - self.echelon.rank

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
    """e(I) = n! vol(C), C the orthant minus NP(I): the sum of
    |det(v_1, ..., v_n)| over the simplices of a pulling triangulation of
    the bounded facets.

    - Cones.  Bounded facets <w, x> >= v have v > 0 (NP misses 0), and no
      other facet has (NP meets each axis).  A ray from 0 enters NP on a
      facet with v > 0, so C is the union of the cones conv(0, F) over the
      bounded facets F, overlapping only over conv(0, F & F'), of volume 0.
    - Facets of a face.  Faces are vertex masks, a bounded face being the
      hull of its vertices.  For a bounded face S and a facet H of NP, S & H
      is a face of S.  A facet G of S is a face of NP, so the intersection
      of the facets of NP holding it, one of which, H, misses part of S; and
      G <= S & H < S gives G = S & H.  So the facets of S are the maximal
      nonempty proper S & H.
    - Pulling.  With a the least vertex of S, the ray from a through x in S
      leaves S at one point, on a facet inequality tight there and slack at
      a, so on a facet G of S without a.  So the cones conv(a, G) cover S,
      overlapping in lower dimension, and recursing into each G (a vertex
      is its own simplex) cuts S into simplices of dim S + 1 vertices.
    - Volume.  e_i -> v_i maps conv(0, e_1, ..., e_n), of volume 1/n!,
      onto conv(0, v_1, ..., v_n) and scales volume by |det(v_1, ..., v_n)|.
    """
    if I.is_zero or I.is_unit or not I.finite_colength:
        raise UnsupportedIdeal("multiplicity needs a proper finite-colength ideal")
    np = newton_polyhedron(I)
    return sum(
        abs(_det([v for i, v in enumerate(np.vertices) if simplex >> i & 1]))
        for f, mask in zip(np.facets, np.incidence) if f.bounded
        for simplex in _pulling(mask, np.incidence)
    )


def _pulling(face: int, facets: list[int]) -> list[int]:
    """Simplices of the pulling triangulation of a bounded face, a vertex
    being its own; faces, simplices and `facets` (NP's) are vertex masks."""
    apex = face & -face
    cuts = {face & f for f in facets} - {0, face}
    pulled = [g for g in cuts if not g & apex and not any(g != h and g & h == g for h in cuts)]
    return [apex | simplex for g in pulled for simplex in _pulling(g, facets)] or [face]


def _det(rows: list[Exponent]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, whose
    divisions by the previous pivot are exact."""
    m, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, len(m)):
            m[i] = [(a * m[k][k] - m[i][k] * b) // prev for a, b in zip(m[i], m[k])]
        prev = m[k][k]
    return sign * m[-1][-1]


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

    Four or more variables are refused: colength_poly builds a box of about
    N^n/n! monomials per order N and has no work bound yet.
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
    if I.nvars > 3:
        raise UnsupportedIdeal("parameter reductions need n <= 3: no colength work bound")
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
        (sum(p) + k for p, k, _ in staircase_walk(*facet_staircase(I, 1)) if k),
        default=1,
    )


class StarOfReduction(
    namedtuple("StarOfReduction", "reduction ideal igt order quotient")
):
    """Membership handle for J + i_greater(I), exact in A/m^N: the reduction
    J, the ideal I, i_greater(I), the order N and the TruncatedQuotient."""

    __slots__ = ()

    def contains(self, h: SparsePoly) -> bool:
        return self.quotient.contains(h)


def star_of_min_reduction(J: PolyIdeal | MonomialIdeal, I: MonomialIdeal) -> StarOfReduction:
    """Represent the weak subintegral closure J + i_greater(I) of a minimal
    reduction J, with an exact membership test in A/m^N for the least N
    with m^N inside i_greater(I), N = igt_truncation_order(I)."""
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
    order = igt_truncation_order(I)
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
    i_greater(I).

    It does not depend on n: each minimal reduction J has n generators and
    J* = J + I_>, with m I <= I_> <= I, so J*/I_> is spanned by n vectors
    of I/I_>, whose dimension dim_i_mod_igt(I) >= n is compared with n.
    """
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
    in degrees below the i_greater truncation order.

    The intersection is an ideal that contains m^N, so the truncated shifts
    of a basis of its image in A/m^N span that image again."""
    star1 = star_of_min_reduction(J1, I)
    star2 = star_of_min_reduction(J2, I)
    rows = intersect_row_spaces(
        star1.quotient.echelon.rows(), star2.quotient.echelon.rows()
    )
    return TruncatedQuotient(
        I.nvars, star1.order, [SparsePoly(I.nvars, row) for row in rows]
    )
