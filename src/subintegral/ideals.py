"""Monomial ideals with exact staircase arithmetic.

A monomial ideal is identified with the up-set of its generator exponents
under the componentwise partial order.  The generator set is kept minimal
(an antichain) as a representation invariant, so structural equality is
ideal equality.  The zero ideal has no generators; the unit ideal is
generated by the zero exponent.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import product

from .errors import DimensionMismatch
from .poly import Exponent, SparsePoly, monomial_string


def _dominates(a: Exponent, b: Exponent) -> bool:
    """True when a >= b componentwise, i.e. x^b divides x^a."""
    return all(x >= y for x, y in zip(a, b))


def _antichain(exponents: Iterable[Exponent]) -> tuple[Exponent, ...]:
    ordered = sorted(set(exponents))
    kept: list[Exponent] = []
    if ordered and len(ordered[0]) == 2:
        # In lex order e is dominated exactly when an earlier e_2 is <= e_2.
        for e in ordered:
            if not kept or e[1] < kept[-1][1]:
                kept.append(e)
        return tuple(kept)
    # Ascending total degree: a dominating generator always comes earlier.
    ordered.sort(key=sum)
    for e in ordered:
        if not any(_dominates(e, k) for k in kept):
            kept.append(e)
    return tuple(sorted(kept))


def staircase_walk(
    bounds: Sequence[int], least: Callable[[Exponent, list], int]
) -> Iterator[tuple[Exponent, int, list]]:
    """Walk the prefixes p of the box range(b_1) x ... x range(b_{n-1})
    lazily and in lex order, and yield (p, least(p, below), below), where
    below lists the least values already yielded at p - e_i for the axes i
    that p uses.  least(p) is the least last exponent of the up-set above p.

    In lex order p - e_i lies stride_i = b_{i+1} * ... * b_{n-1} steps back,
    at most one slab (one value of p_1) back, so only the last slab of least
    values is kept, in a ring buffer: memory O(box / b_1), never the box.
    """
    strides = [math.prod(bounds[i + 1:]) for i in range(len(bounds))]
    slab = strides[0] if strides else 1
    last = [0] * slab
    for idx, p in enumerate(product(*map(range, bounds))):
        below = [last[(idx - s) % slab] for s, c in zip(strides, p) if c]
        k = least(p, below)
        last[idx % slab] = k
        yield p, k, below


def staircase_corners(
    bounds: Sequence[int], least: Callable[[Exponent, list], int]
) -> Iterator[Exponent]:
    """Minimal generators of the up-set {(p, k) : k >= least(p)}, for a
    non-increasing least whose generator prefixes lie in the box, in lex
    order.

    (p, least(p)) is minimal exactly when least drops at p along every axis
    that p uses: least(p - e_i) > least(p) whenever p_i > 0.
    """
    for p, k, below in staircase_walk(bounds, least):
        if all(b > k for b in below):
            yield p + (k,)


class MonomialIdeal:
    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, exponents: Iterable[Sequence[int]] = ()):
        exps = []
        for e in exponents:
            e = tuple(int(v) for v in e)
            if len(e) != nvars:
                raise DimensionMismatch(
                    f"exponent {e} has length {len(e)}, expected {nvars}"
                )
            if any(v < 0 for v in e):
                raise ValueError(f"negative exponent in {e}")
            exps.append(e)
        self.nvars = nvars
        self.gens = _antichain(exps)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_minimal(cls, nvars: int, gens: Iterable[Exponent]) -> "MonomialIdeal":
        """The ideal of generators that are already an antichain of
        nvars-tuples in lex order, as staircase_corners emits them; nothing
        is checked or minimalized again."""
        ideal = object.__new__(cls)
        ideal.nvars = nvars
        ideal.gens = tuple(gens)
        return ideal

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, ())

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, [(0,) * nvars])

    @classmethod
    def maximal(cls, nvars: int) -> "MonomialIdeal":
        """The ideal generated by all the variables."""
        gens = []
        for i in range(nvars):
            e = [0] * nvars
            e[i] = 1
            gens.append(tuple(e))
        return cls(nvars, gens)

    # -- basic predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def contains_exponent(self, exponent: Sequence[int]) -> bool:
        e = tuple(exponent)
        return any(_dominates(e, g) for g in self.gens)

    def contains(self, f: SparsePoly) -> bool:
        """Polynomial membership: every term must be divisible by a generator."""
        if f.nvars != self.nvars:
            raise DimensionMismatch("polynomial and ideal variable counts differ")
        return all(self.contains_exponent(e) for e, _ in f.items())

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        if other.nvars != self.nvars:
            raise DimensionMismatch("mixed variable counts")
        return all(self.contains_exponent(g) for g in other.gens)

    # -- ideal arithmetic --------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.nvars != self.nvars:
            raise DimensionMismatch("mixed variable counts")
        return MonomialIdeal(self.nvars, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.nvars != self.nvars:
            raise DimensionMismatch("mixed variable counts")
        sums = [
            tuple(a + b for a, b in zip(g, h)) for g in self.gens for h in other.gens
        ]
        return MonomialIdeal(self.nvars, sums)

    def power(self, k: int) -> "MonomialIdeal":
        """I^k as a chain of k - 1 products by I; the unit ideal for k = 0."""
        if k < 0:
            raise ValueError("negative ideal power")
        if k == 0:
            return MonomialIdeal.unit(self.nvars)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """{a : a * other is contained in self}."""
        if other.nvars != self.nvars:
            raise DimensionMismatch("mixed variable counts")
        if other.is_zero:
            return MonomialIdeal.unit(self.nvars)
        result = None
        for g in other.gens:
            shifted = MonomialIdeal(
                self.nvars,
                [tuple(max(a - b, 0) for a, b in zip(f, g)) for f in self.gens],
            )
            result = shifted if result is None else result.intersect(shifted)
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.nvars != self.nvars:
            raise DimensionMismatch("mixed variable counts")
        lcms = [
            tuple(max(a, b) for a, b in zip(g, h))
            for g in self.gens
            for h in other.gens
        ]
        return MonomialIdeal(self.nvars, lcms)

    # -- staircase data ------------------------------------------------------------

    def axis_degrees(self) -> list[int | None]:
        """For each axis i, the exponent of the pure-power generator x_i^k,
        or None when no pure power of x_i lies in the ideal."""
        out: list[int | None] = [None] * self.nvars
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e]
            if len(support) == 1:
                i = support[0]
                if out[i] is None or g[i] < out[i]:
                    out[i] = g[i]
            elif not support:
                out = [0] * self.nvars
                return out
        return out

    @property
    def finite_colength(self) -> bool:
        """True when the ideal contains a power of every variable."""
        if self.nvars == 0:
            return self.is_unit
        return all(k is not None for k in self.axis_degrees())

    def colength(self) -> int | float:
        """Number of standard monomials; math.inf when infinite.

        Each prefix p of the first n - 1 exponents below the axis degrees
        has as many standard monomials above it as the least last exponent
        of a generator g with g' <= p.
        """
        if self.is_zero or not self.finite_colength:
            return math.inf
        if self.is_unit:
            return 0
        return sum(k for _, k, _ in self.staircase(self.axis_degrees()[:-1]))

    def staircase(self, bounds: Sequence[int]) -> Iterator[tuple[Exponent, int | float, list]]:
        """staircase_walk over the box of bounds with least(p) = min{g_n :
        g' <= p} over the generators g, where g' is g without its last
        exponent; math.inf when no g' lies below p.

        g' <= p means g' = p or g' <= p - e_i for an axis i that p uses, so
        least(p) = min(own(p), least(p - e_i)), where own(p) is the least
        g_n with g' = p: no generator is scanned per prefix.
        """
        own: dict[Exponent, int] = {}
        for g in self.gens:
            p, k = g[:-1], g[-1]
            if k < own.get(p, math.inf):
                own[p] = k

        def least(p, below):
            return min((own.get(p, math.inf), *below))

        return staircase_walk(bounds, least)

    def generator_polys(self) -> list[SparsePoly]:
        return [SparsePoly.monomial(g) for g in self.gens]

    # -- comparison / printing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def sorted_gens(self) -> list[Exponent]:
        """Generators in descending lex order (the conventional way ideals
        are written: leading variable powers first)."""
        return sorted(self.gens, reverse=True)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "(0)"
        body = ", ".join(monomial_string(g, names) for g in self.sorted_gens())
        return f"({body})"

    def __repr__(self):
        return f"MonomialIdeal({self.to_string()!r})"


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


# -- module-level operation names ------------------------------------------------


def max_power_membership(b: Exponent, gens: Sequence[Exponent], cap: int) -> int:
    """Largest n <= cap such that x^b lies in the n-th power of the ideal
    generated by `gens`: maximize k_1 + ... + k_g subject to
    sum k_j * gens[j] <= b componentwise.  Exact branch-and-bound."""
    order = sorted(gens, key=sum)
    degs = [sum(g) for g in order]
    total = sum(b)
    best = 0

    def rec(idx: int, residual: tuple, count: int, rtotal: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if best >= cap or idx == len(order):
            return
        # Remaining generators all have degree >= degs[idx].
        if count + rtotal // degs[idx] <= best:
            return
        g = order[idx]
        kmax = min(residual[i] // g[i] for i in range(len(g)) if g[i])
        for k in range(kmax, -1, -1):
            rec(
                idx + 1,
                tuple(r - k * gi for r, gi in zip(residual, g)),
                count + k,
                rtotal - k * degs[idx],
            )
            if best >= cap:
                return

    rec(0, tuple(b), 0, total)
    return min(best, cap)


def ord_in(f: SparsePoly, ideal: MonomialIdeal, cap: int = 64) -> int | float:
    """Largest n <= cap with f in ideal**n.

    Returns math.inf when f is zero or the ideal is the unit ideal (f then
    lies in every power).  A return value equal to cap means the order is at
    least cap; for proper ideals and cap above the minimal term degree of f
    the result is exact.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if f.nvars != ideal.nvars:
        raise DimensionMismatch("polynomial and ideal variable counts differ")
    if f.is_zero or ideal.is_unit:
        return math.inf
    if ideal.is_zero:
        return 0
    return min(max_power_membership(e, ideal.gens, cap) for e, _ in f.items())

