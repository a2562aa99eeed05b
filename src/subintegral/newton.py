"""Newton polyhedra of monomial ideals and their Rees valuations.

The Newton polyhedron NP(I) is the convex hull of the generator exponents
plus the nonnegative orthant.  Its facet inequalities are computed exactly
by double description on the homogenization cone: facet normals of

    C = cone{(g, 1) : g generator} + cone{(e_i, 0)}

are the extreme rays of the dual cone {a : <a, c> >= 0 for all c in C},
and each ray (w, -v) with w nonzero yields the facet <w, x> >= v of NP(I).
Double description runs in integers: it starts from the rays of the
coordinate constraints and the first generator, known in closed form, and
tells adjacent rays apart by their tight sets alone, the combinatorial
test of Fukuda and Prodon ("Double description method revisited", 1996).
A facet is bounded exactly when its normal is strictly positive, and for
ideals of finite colength the bounded facets carry the Rees valuations:
v_w(x^a) = <w, a> with v_w(I) the facet value.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache, reduce
from math import gcd
from operator import and_

from .errors import UnsupportedIdeal
from .ideals import MonomialIdeal
from .poly import Exponent, SparsePoly


class Facet(namedtuple("Facet", "normal value bounded")):
    """The facet <normal, x> >= value of NP(I); bounded iff normal > 0."""

    __slots__ = ()


class NewtonPolyhedron(namedtuple("NewtonPolyhedron", "nvars vertices facets incidence")):
    """Vertices (generator exponents) and facets of NP(I), both sorted, and
    per facet the mask of the vertices on it (bit i for vertices[i])."""

    __slots__ = ()

    def bounded_facets(self) -> tuple[Facet, ...]:
        return tuple(f for f in self.facets if f.bounded)


class ReesValuation(namedtuple("ReesValuation", "weight value_on_ideal")):
    """The monomial valuation v(x^a) = <weight, a>, with v(I) = value_on_ideal."""

    __slots__ = ()

    def value_of_exponent(self, exponent: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weight, exponent))

    def value(self, f: SparsePoly) -> int | float:
        """Monomial valuation of a polynomial: min over occurring terms."""
        if f.is_zero:
            return float("inf")
        return min(self.value_of_exponent(e) for e, _ in f.items())


# -- double description in integers --------------------------------------------


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(vector: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vector)
    return tuple(v // g for v in vector)


def extreme_rays(gens: Sequence[Exponent]) -> list[tuple[tuple[int, ...], int]]:
    """Pairs (ray, mask), sorted, of the extreme rays of the dual cone
    {a : <c, a> >= 0 for all c}, where c runs over the n coordinate
    constraints (e_i, 0) and one constraint (g, 1) per exponent g of the
    nonempty list `gens`, and the bit mask of the c tight on the ray.

    Constraint k is (e_k, 0) for k < n and (gens[k - n], 1) after that.
    Each ray carries its tight set Z(r), the constraints added so far on
    which it is 0, as a bit mask.

    - Start.  The coordinate constraints and (g0, 1), g0 = gens[0], are the
      rows of an invertible B with B a = (a_1, ..., a_n, <g0, a'> + a_{n+1}).
      The columns of B^-1, (e_j, -g0_j) and (0, 1), are the extreme rays of
      {a : B a >= 0}, and each is tight on every row of B but its own.
      That cone is pointed, and so is every cone cut from it.
    - Step.  A new constraint c keeps the rays with <c, r> >= 0, adds c to
      Z(r) where <c, r> = 0, and for each adjacent pair of rays r+, r- with
      <c, r+> > 0 > <c, r-> adds the ray p r- + m r+, where p = <c, r+> and
      m = -<c, r->.
    - Adjacency.  In a pointed cone the face cut out by Z(r) & Z(s) is the
      least face holding r + s.  Rays r and s are adjacent iff that face is
      2-dimensional.  A 2-dimensional pointed cone has two extreme rays and
      one of higher dimension has at least three, so r and s are adjacent
      iff no third ray is tight on all of Z(r) & Z(s).  Distinct extreme
      rays have distinct tight sets, so the masks tell the rays apart.
    - The new ray's tight set is Z(r+) & Z(r-) plus c, with no dot product:
      on an earlier constraint c' it reads p <c', r-> + m <c', r+>, a sum of
      two nonnegative terms that is 0 iff both are.
    - The new ray is never 0: p r- = -m r+ with p, m > 0 would put r+ and
      -r+ in a pointed cone.
    """
    n = len(gens[0])
    base = (1 << (n + 1)) - 1
    rays = {(0,) * n + (1,): base & ~(1 << n)}
    for j in range(n):
        ray = [0] * (n + 1)
        ray[j], ray[n] = 1, -gens[0][j]
        rays[tuple(ray)] = base & ~(1 << j)

    for k, g in enumerate(gens[1:], start=n + 1):
        c = tuple(g) + (1,)
        bit = 1 << k
        vals = {r: _dot(c, r) for r in rays}
        new_rays = {r: z | bit if vals[r] == 0 else z for r, z in rays.items() if vals[r] >= 0}
        plus = [r for r in rays if vals[r] > 0]
        minus = [r for r in rays if vals[r] < 0]
        for rp in plus:
            for rm in minus:
                zp, zm = rays[rp], rays[rm]
                common = zp & zm
                if any(z & common == common for z in rays.values() if z not in (zp, zm)):
                    continue
                ray = _primitive([vals[rp] * a - vals[rm] * b for a, b in zip(rm, rp)])
                new_rays[ray] = common | bit
        rays = new_rays
    return sorted(rays.items())


# -- public operations ---------------------------------------------------------


@lru_cache(maxsize=1024)
def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """NP(I), built once per ideal: the result is immutable, so every
    caller (Rees valuations, reductions, closures) shares one run of
    double description.  Ray order sorts the facets, no two sharing a
    normal, and the rays' masks give the generators on each facet.

    A generator g is a vertex iff no other generator is tight on every facet
    tight at g: iff the AND of those facets' generator masks is g's bit.
    Those facets cut out F, the least face holding g, and F is the hull of
    the generators on it plus the cone of the axis directions along which
    it recedes.  If g is the only generator on F, then F is g plus a cone
    of axis directions, so {g} is a face of NP inside F, and F = {g}
    because F is least.  Generators, hence vertices, are in lex order.
    """
    if ideal.is_zero:
        raise UnsupportedIdeal("the zero ideal has no Newton polyhedron")
    n, gens = ideal.nvars, ideal.gens
    facets, on_facet = [], []  # on_facet: generator masks, bit k for gens[k]
    for ray, tight in extreme_rays(gens):
        w = ray[:n]
        if any(w):  # else the homogenization artifact (the trivial inequality)
            facets.append(Facet(normal=w, value=-ray[n], bounded=all(x > 0 for x in w)))
            on_facet.append(tight >> n)
    every = (1 << len(gens)) - 1
    vertices = [
        k for k in range(len(gens))
        if reduce(and_, (m for m in on_facet if m >> k & 1), every) == 1 << k
    ]
    incidence = tuple(sum(1 << i for i, k in enumerate(vertices) if m >> k & 1) for m in on_facet)
    return NewtonPolyhedron(n, tuple(gens[k] for k in vertices), tuple(facets), incidence)


def rees_valuations(ideal: MonomialIdeal) -> list[ReesValuation]:
    """One monomial valuation per bounded facet, ordered by weight as the
    facets are.

    Restricted to finite-colength ideals, where the bounded facets are in
    bijection with the Rees valuations; for other monomial ideals some Rees
    valuations sit on unbounded facets and we refuse rather than guess.
    """
    if ideal.is_zero or ideal.is_unit or not ideal.finite_colength:
        raise UnsupportedIdeal(
            "Rees valuations via bounded facets need a proper finite-colength ideal"
        )
    np = newton_polyhedron(ideal)
    return [
        ReesValuation(weight=f.normal, value_on_ideal=f.value)
        for f in np.bounded_facets()
    ]
