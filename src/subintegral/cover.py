"""Desk-scale checks on branched covers cut out by certificate polynomials.

A certificate with window top degree N = 2q+1 determines the monic
hypersurface

    F(X, T) = T^N + sum_i C(N, i) f_i(X) T^{N-i},

a degree-N branched cover of X-space.  The locus where at least
floor(N/2) + 1 sheets come together is where F and its first floor(N/2)
T-derivatives vanish simultaneously; over each base point there can be at
most one such deep root, so the projection restricted to that locus is
injective.  These checks exercise exactly that picture on rational data.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb, gcd, lcm

from .poly import SparsePoly
from .rrs import RRSSystem


class MonicHypersurface(namedtuple("MonicHypersurface", "space_vars poly degree")):
    """A polynomial monic of degree N in the last variable (the fiber T);
    poly lives in space_vars + 1 variables."""

    __slots__ = ()

    def __new__(cls, space_vars: int, poly: SparsePoly, degree: int):
        if poly.nvars != space_vars + 1:
            raise ValueError("hypersurface polynomial has wrong variable count")
        if degree < 1:
            raise ValueError("fiber degree must be >= 1")
        lead = [(e, c) for e, c in poly.items() if e[space_vars] == degree]
        if len(lead) != 1 or any(lead[0][0][:space_vars]) or lead[0][1] != 1:
            raise ValueError("polynomial is not monic of the stated fiber degree")
        if any(e[space_vars] > degree for e, _ in poly.items()):
            raise ValueError("terms exceed the stated fiber degree")
        return super().__new__(cls, space_vars, poly, degree)

    @property
    def ell(self) -> int:
        return self.degree // 2

    def specialize(self, x: Sequence) -> list[Fraction]:
        """Coefficients of F(x, T) by ascending T-degree (length N+1)."""
        if len(x) != self.space_vars:
            raise ValueError("base point has wrong length")
        point = [Fraction(v) for v in x]
        out = [Fraction(0)] * (self.degree + 1)
        for exp, coeff in self.poly.items():
            td = exp[self.space_vars]
            prod = coeff
            for v, e in zip(point, exp[: self.space_vars]):
                if e:
                    prod *= v**e
            out[td] += prod
        return out


def from_rrs(system: RRSSystem) -> MonicHypersurface:
    """Build T^{2q+1} + sum C(2q+1, i) a_i(X) T^{2q+1-i} from a certificate.

    In a polynomial ring the coefficients are their own lifts.
    """
    n_space = system.coeffs[0].nvars
    deg = 2 * system.q + 1
    # Each a_i lands in its own T-degree 2q + 1 - i, so no two terms meet.
    terms = {(0,) * n_space + (deg,): Fraction(1)}
    for i, f in enumerate(system.coeffs, start=1):
        scale = comb(deg, i)
        terms.update((e + (deg - i,), scale * c) for e, c in f.items())
    poly = SparsePoly._from_clean(n_space + 1, terms)
    return MonicHypersurface(space_vars=n_space, poly=poly, degree=deg)


def _integer_multiple(univ: Sequence[Fraction]) -> list[int]:
    """The coefficients times the lcm of their denominators: a polynomial
    over the integers with the same roots and multiplicities."""
    scale = lcm(*(c.denominator for c in univ))
    return [c.numerator * (scale // c.denominator) for c in univ]


def _multiplicity(coeffs: list[int], t: Fraction, cap: int) -> int:
    """Largest m <= cap with (T - t)^m dividing the nonzero integer
    polynomial (ascending coefficients).  With t = p/q in lowest terms,
    qT - p is primitive, so it divides over Q exactly when it divides over
    Z: each division runs from the top, b_(j-1) = (a_j + p b_j) / q, and
    stops at the first inexact step or nonzero remainder."""
    p, q = t.numerator, t.denominator
    for m in range(cap):
        quotient = [0] * (len(coeffs) - 1)
        b = 0
        for j in range(len(coeffs) - 1, 0, -1):
            b, rest = divmod(coeffs[j] + p * b, q)
            if rest:
                return m
            quotient[j - 1] = b
        if coeffs[0] + p * b:
            return m
        coeffs = quotient
    return cap


def zz_membership(surface: MonicHypersurface, point: Sequence) -> bool:
    """True iff F and its first floor(N/2) T-derivatives vanish at the point,
    that is iff (T - t)^(ell+1) divides F(x, T)."""
    if len(point) != surface.space_vars + 1:
        raise ValueError("point has wrong length")
    x, t = point[:-1], Fraction(point[-1])
    univ = _integer_multiple(surface.specialize(x))
    return _multiplicity(univ, t, surface.ell + 1) == surface.ell + 1


def root_multiplicity(surface: MonicHypersurface, x: Sequence, t) -> int:
    """Largest m with (T - t)^m dividing F(x, T)."""
    univ = _integer_multiple(surface.specialize(x))
    return _multiplicity(univ, Fraction(t), surface.degree)


def _primitive(a: list[int]) -> list[int]:
    content = gcd(*a)
    return [c // content for c in a]


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials (ascending
    coefficients), by pseudo-remainders kept primitive."""
    while b:
        a, b = b, list(a)
        while len(b) >= len(a):  # b := lead(a)^k * b mod a
            factor, shift = b[-1], len(b) - len(a)
            b = [a[-1] * c for c in b]
            for i, c in enumerate(a):
                b[shift + i] -= factor * c
            while b and b[-1] == 0:
                b.pop()
        if b:
            b = _primitive(b)
    return _primitive(a)


def deep_roots(surface: MonicHypersurface, x: Sequence) -> list[Fraction]:
    """Roots of F(x, T) of multiplicity at least floor(N/2) + 1.

    Such a root r is unique (two would need more than N roots), so
    G = gcd(F, F', ..., F^(ell)) is c (T - r)^k and r = -g_(k-1) / (k c)
    is rational.  The gcd is taken over the integers, on F times the lcm of
    its denominators.
    """
    g = deriv = _integer_multiple(surface.specialize(x))
    for _ in range(surface.ell):
        deriv = [j * c for j, c in enumerate(deriv)][1:]
        g = _primitive_gcd(g, deriv)
    k = len(g) - 1
    return [Fraction(-g[k - 1], k * g[k])] if k else []


def unique_deep_root_check(
    surface: MonicHypersurface, sample_points: Sequence[Sequence]
) -> bool:
    """At most one deep rational root over every sampled base point."""
    return all(len(deep_roots(surface, x)) <= 1 for x in sample_points)


def graph_on_deep_locus(
    surface: MonicHypersurface, h: SparsePoly, sample_points: Sequence[Sequence]
) -> bool:
    """Check that (x, h(x)) sits on the deep locus for every sample point."""
    return all(
        zz_membership(surface, list(x) + [h.evaluate(x)]) for x in sample_points
    )
