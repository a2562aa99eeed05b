"""Newton polyhedra of monomial ideals and their Rees valuations.

The Newton polyhedron NP(I) is the convex hull of the generator exponents
plus the nonnegative orthant.  Its facet inequalities are computed exactly
by double description on the homogenization cone: facet normals of

    C = cone{(g, 1) : g generator} + cone{(e_i, 0)}

are the extreme rays of the dual cone {a : <a, c> >= 0 for all c in C},
and each ray (w, -v) with w nonzero yields the facet <w, x> >= v of NP(I).
A facet is bounded exactly when its normal is strictly positive, and for
ideals of finite colength the bounded facets carry the Rees valuations:
v_w(x^a) = <w, a> with v_w(I) the facet value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import List, Sequence, Tuple

from .errors import UnsupportedIdeal
from .ideals import MonomialIdeal
from .linalg import Echelon, rank_of_vectors, solve_sparse
from .poly import Exponent, SparsePoly


@dataclass(frozen=True)
class Facet:
    normal: Tuple[int, ...]
    value: int
    bounded: bool


@dataclass(frozen=True)
class NewtonPolyhedron:
    nvars: int
    vertices: Tuple[Exponent, ...]
    facets: Tuple[Facet, ...]

    def bounded_facets(self) -> Tuple[Facet, ...]:
        return tuple(f for f in self.facets if f.bounded)


@dataclass(frozen=True)
class ReesValuation:
    weight: Tuple[int, ...]
    value_on_ideal: int

    def value_of_exponent(self, exponent: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weight, exponent))

    def value(self, f: SparsePoly) -> int | float:
        """Monomial valuation of a polynomial: min over occurring terms."""
        if f.is_zero:
            return float("inf")
        return min(self.value_of_exponent(e) for e, _ in f.items())


# -- exact double description -------------------------------------------------


def _primitive(vector: Sequence[Fraction]) -> Tuple[int, ...]:
    fracs = [Fraction(v) for v in vector]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints) if g else tuple(ints)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _initial_basis(constraints: List[Tuple[int, ...]], dim: int) -> List[int]:
    """Greedy choice of `dim` constraint indices with independent rows."""
    ech = Echelon()
    chosen: List[int] = []
    for i, c in enumerate(constraints):
        if ech.add_row({k: Fraction(v) for k, v in enumerate(c) if v}):
            chosen.append(i)
            if len(chosen) == dim:
                return chosen
    raise ValueError("constraint set is not full-dimensional")


def _solve_unit(rows: List[Tuple[int, ...]], j: int) -> Tuple[Fraction, ...]:
    """Solve M a = e_j for the small dense invertible matrix with given rows."""
    solution = solve_sparse(
        [({k: Fraction(v) for k, v in enumerate(r) if v}, int(i == j))
         for i, r in enumerate(rows)]
    )
    return tuple(solution.get(k, 0) for k in range(len(rows)))


def extreme_rays(constraints: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Extreme rays of the pointed cone {a : <c, a> >= 0 for all constraints}.

    Requires the constraint rows to span the ambient space (so the cone is
    pointed).  Classical double description with the algebraic adjacency
    test: two rays are adjacent iff their common active constraints have
    rank dim - 2.
    """
    cons = [tuple(int(v) for v in c) for c in constraints]
    dim = len(cons[0])
    base = _initial_basis(cons, dim)
    base_rows = [cons[i] for i in base]

    rays: dict[Tuple[int, ...], frozenset] = {}
    for j in range(dim):
        ray = _primitive(_solve_unit(base_rows, j))
        rays[ray] = frozenset(base[k] for k in range(dim) if k != j)

    processed = set(base)
    for idx, g in enumerate(cons):
        if idx in processed:
            continue
        processed.add(idx)
        vals = {r: _dot(g, r) for r in rays}
        plus = [r for r, v in vals.items() if v > 0]
        zero = [r for r, v in vals.items() if v == 0]
        minus = [r for r, v in vals.items() if v < 0]
        new_rays: dict[Tuple[int, ...], frozenset] = {}
        for r in plus:
            new_rays[r] = rays[r]
        for r in zero:
            new_rays[r] = rays[r] | {idx}
        for rp in plus:
            for rm in minus:
                common = rays[rp] & rays[rm]
                if rank_of_vectors([cons[i] for i in common]) != dim - 2:
                    continue
                combo = tuple(
                    vals[rp] * a - vals[rm] * b for a, b in zip(rm, rp)
                )
                ray = _primitive(combo)
                if ray not in new_rays:
                    new_rays[ray] = frozenset(
                        k for k in processed if _dot(cons[k], ray) == 0
                    )
        rays = new_rays
    return sorted(rays)


# -- public operations ---------------------------------------------------------


@lru_cache(maxsize=1024)
def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """NP(I), built once per ideal: the result is immutable, so every
    caller (Rees valuations, reductions, closures) shares one run of
    double description."""
    if ideal.is_zero:
        raise UnsupportedIdeal("the zero ideal has no Newton polyhedron")
    n = ideal.nvars
    constraints: List[Tuple[int, ...]] = []
    for i in range(n):
        e = [0] * (n + 1)
        e[i] = 1
        constraints.append(tuple(e))
    for g in ideal.gens:
        constraints.append(tuple(g) + (1,))

    facets: List[Facet] = []
    for ray in extreme_rays(constraints):
        w, last = ray[:n], ray[n]
        if not any(w):
            continue  # homogenization artifact (the trivial inequality)
        facets.append(Facet(normal=w, value=-last, bounded=all(x > 0 for x in w)))
    facets.sort(key=lambda f: (f.normal, f.value))

    vertices = []
    for g in ideal.gens:
        active = [
            f.normal
            for f in facets
            if sum(w * e for w, e in zip(f.normal, g)) == f.value
        ]
        if rank_of_vectors(active) == n:
            vertices.append(g)
    return NewtonPolyhedron(nvars=n, vertices=tuple(sorted(vertices)), facets=tuple(facets))


def rees_valuations(ideal: MonomialIdeal) -> List[ReesValuation]:
    """One monomial valuation per bounded facet, ordered by weight.

    Restricted to finite-colength ideals, where the bounded facets are in
    bijection with the Rees valuations; for other monomial ideals some Rees
    valuations sit on unbounded facets and we refuse rather than guess.
    """
    if ideal.is_zero or ideal.is_unit or not ideal.finite_colength:
        raise UnsupportedIdeal(
            "Rees valuations via bounded facets need a proper finite-colength ideal"
        )
    np = newton_polyhedron(ideal)
    vals = [
        ReesValuation(weight=f.normal, value_on_ideal=f.value)
        for f in np.bounded_facets()
    ]
    vals.sort(key=lambda v: v.weight)
    return vals


def np_membership(point: Sequence, np: NewtonPolyhedron) -> bool:
    """Exact test that a rational point lies in the polyhedron."""
    if len(point) != np.nvars:
        raise ValueError("point has wrong length")
    q = [Fraction(v) for v in point]
    if any(v < 0 for v in q):
        return False
    return all(
        sum(Fraction(w) * v for w, v in zip(f.normal, q)) >= f.value for f in np.facets
    )
