"""Independent oracles and random-input generators for the test suite.

Each oracle recomputes a quantity by a different algorithm than the library
path it checks: bounded facets and vertices by a 2D hull sweep, and all
facets by 3D plane enumeration with vertices from the rank of the facets
tight at each generator, instead of double description; integral-closure
membership by brute-force Minkowski sums instead of facet inequalities;
the integral closure, i_greater, their truncation order and the colength
by testing every point of the axis-degree box instead of walking the
staircase; and ideal orders by explicit power chains instead of
branch-and-bound.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

from subintegral import MonomialIdeal, rees_valuations
from subintegral.poly import SparsePoly


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_hull_2d(gens):
    """Lower convex hull of 2-variable exponents, left to right, by a
    monotone-chain sweep; collinear points are dropped."""
    pts = sorted(set(tuple(g) for g in gens))
    hull = []
    for p in pts:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def vertices_2d_sweep(gens):
    """Corners of the staircase hull of 2-variable exponents: the lower hull
    from its leftmost point down to its first lowest point."""
    hull = _lower_hull_2d(gens)
    return set(hull[: hull.index(min(hull, key=lambda p: p[1])) + 1])


def bounded_facets_2d_sweep(gens):
    """Bounded facets of the staircase hull of 2-variable exponents, as a
    set of (normal, value) pairs, by a monotone-chain edge sweep."""
    hull = _lower_hull_2d(gens)
    facets = set()
    for a, b in zip(hull, hull[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx > 0 and dy < 0:
            w = (-dy, dx)
            g = gcd(w[0], w[1])
            w = (w[0] // g, w[1] // g)
            facets.add((w, w[0] * a[0] + w[1] * a[1]))
    return facets


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def facets_3d_brute(gens):
    """All facets of conv(gens) + orthant in 3-space by plane enumeration.

    Candidate facet planes are spanned by pairs drawn from generator
    differences and axis rays; a candidate survives when its normal is
    nonnegative, supports every generator from above, and its tight set
    spans two dimensions.  Returns {(primitive normal, value)}.
    """
    from math import gcd

    gens = [tuple(g) for g in gens]
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    directions = [
        tuple(a - b for a, b in zip(g, h)) for g in gens for h in gens if g != h
    ]
    directions += axes
    facets = set()
    for i, u in enumerate(directions):
        for v in directions[i + 1:]:
            w = _cross3(u, v)
            if not any(w):
                continue
            if all(c <= 0 for c in w):
                w = tuple(-c for c in w)
            if any(c < 0 for c in w):
                continue
            g = 0
            for c in w:
                g = gcd(g, c)
            w = tuple(c // g for c in w)
            value = min(sum(a * b for a, b in zip(w, g2)) for g2 in gens)
            tight = [g2 for g2 in gens if sum(a * b for a, b in zip(w, g2)) == value]
            span = [tuple(a - b for a, b in zip(g2, tight[0])) for g2 in tight[1:]]
            span += [axes[k] for k in range(3) if w[k] == 0]
            if _rank3(span) == 2:
                facets.add((w, value))
    return facets


def vertices_3d_brute(gens):
    """Generators of 3-variable exponents at which the facets of
    facets_3d_brute that are tight there have normals of rank 3."""
    facets = facets_3d_brute(gens)
    return {
        tuple(g)
        for g in gens
        if _rank3([w for w, v in facets if sum(a * b for a, b in zip(w, g)) == v]) == 3
    }


def _rank3(vectors):
    from fractions import Fraction

    rows = [list(map(Fraction, v)) for v in vectors if any(v)]
    rank = 0
    cols = 3
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _divides(g, e):
    return all(a <= b for a, b in zip(g, e))


def scan_box(ideal, slack):
    """The integral closure (slack 0) or i_greater (slack 1) of a
    finite-colength ideal, by testing every point of the box 0 <= e_i <=
    a_i + slack against v(e) >= v(I) + slack for every Rees valuation v."""
    vals = rees_valuations(ideal)
    bounds = [k + slack for k in ideal.axis_degrees()]
    hits = [
        e
        for e in product(*(range(b + 1) for b in bounds))
        if all(v.value_of_exponent(e) >= v.value_on_ideal + slack for v in vals)
    ]
    return MonomialIdeal(ideal.nvars, hits)


def truncation_order_by_degree(ideal):
    """Least N with every monomial of degree N in i_greater(ideal), found
    degree by degree on the box-scanned i_greater."""
    igt = scan_box(ideal, 1)
    for order in range(1, sum(k + 2 for k in ideal.axis_degrees()) + 1):
        if all(
            any(_divides(g, p + (order - sum(p),)) for g in igt.gens)
            for p in product(*(range(order + 1) for _ in range(ideal.nvars - 1)))
            if sum(p) <= order
        ):
            return order
    raise AssertionError("no truncation order below the staircase bound")


def colength_by_box_count(ideal):
    """Number of points of the axis-degree box that no generator divides."""
    return sum(
        not any(_divides(g, e) for g in ideal.gens)
        for e in product(*(range(k) for k in ideal.axis_degrees()))
    )


def closure_member_minkowski(exponent, gens, m_max=24):
    """Brute-force integral-closure membership: does m * exponent dominate a
    sum of m generators for some m <= m_max?  Level-by-level sums with
    domination pruning."""
    exponent = tuple(exponent)
    n = len(exponent)
    for m in range(1, m_max + 1):
        target = tuple(m * e for e in exponent)
        level = {(0,) * n}
        ok = True
        for _ in range(m):
            nxt = set()
            for s in level:
                for g in gens:
                    cand = tuple(a + b for a, b in zip(s, g))
                    if all(c <= t for c, t in zip(cand, target)):
                        nxt.add(cand)
            # Keep only minimal partial sums: anything dominated is never
            # better for reaching the target.
            pruned = []
            for c in sorted(nxt, key=sum):
                if not any(all(p[i] <= c[i] for i in range(n)) for p in pruned):
                    pruned.append(c)
            level = set(pruned)
            if not level:
                ok = False
                break
        if ok and level:
            return True
    return False


def ord_by_power_chain(f: SparsePoly, ideal: MonomialIdeal, cap: int = 64):
    """Largest n <= cap with f in ideal**n, via explicit minimalized powers."""
    if f.is_zero or ideal.is_unit:
        return float("inf")
    if ideal.is_zero:
        return 0
    current = MonomialIdeal.unit(ideal.nvars)
    order = 0
    for n in range(1, cap + 1):
        current = current * ideal
        if not current.contains(f):
            return order
        order = n
    return order


def random_monomial_ideal(
    rng: random.Random, nvars: int, max_exp: int = 4, extra: int = 2,
    finite_colength: bool = True,
) -> MonomialIdeal:
    gens = []
    if finite_colength:
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randint(1, max_exp)
            gens.append(tuple(e))
    for _ in range(extra):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if any(e):
            gens.append(e)
    if not gens:
        gens = [tuple([1] + [0] * (nvars - 1))]
    return MonomialIdeal(nvars, gens)


def random_monomial(rng: random.Random, nvars: int, max_exp: int = 5) -> SparsePoly:
    e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
    return SparsePoly.monomial(e)


def random_igt_element(rng: random.Random, igt: MonomialIdeal) -> SparsePoly:
    """Random small combination of i_greater generators times monomials."""
    nvars = igt.nvars
    total = SparsePoly.zero(nvars)
    picks = rng.randint(1, 2)
    for _ in range(picks):
        g = rng.choice(igt.gens)
        shift = tuple(rng.randint(0, 1) for _ in range(nvars))
        coeff = rng.choice([1, -1, 2, 3])
        total = total + SparsePoly.monomial(
            tuple(a + b for a, b in zip(g, shift)), coeff
        )
    if total.is_zero:
        total = SparsePoly.monomial(igt.gens[0])
    return total
