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
from math import comb

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


def from_rrs(
    system: RRSSystem, lifts: Sequence[SparsePoly] | None = None
) -> MonicHypersurface:
    """Build T^{2q+1} + sum C(2q+1, i) f_i(X) T^{2q+1-i} from a certificate.

    In a polynomial ring the coefficients are their own lifts, so `lifts`
    defaults to them.
    """
    coeffs = list(lifts) if lifts is not None else list(system.coeffs)
    if len(coeffs) != len(system.coeffs):
        raise ValueError("need one lift per certificate coefficient")
    n_space = coeffs[0].nvars if coeffs else 1
    deg = 2 * system.q + 1
    total = SparsePoly.zero(n_space + 1)
    t_exp = lambda k: (0,) * n_space + (k,)
    total = total + SparsePoly.monomial(t_exp(deg))
    for i, f in enumerate(coeffs, start=1):
        lifted = SparsePoly(
            n_space + 1, {e + (deg - i,): c for e, c in f.items()}
        )
        total = total + comb(deg, i) * lifted
    return MonicHypersurface(space_vars=n_space, poly=total, degree=deg)


def _eval_derivatives(univ: list[Fraction], t: Fraction, count: int) -> list[Fraction]:
    """Values of the univariate polynomial and its first `count` derivatives."""
    out = []
    coeffs = list(univ)
    for _ in range(count + 1):
        out.append(sum(c * t**j for j, c in enumerate(coeffs)))
        coeffs = [coeffs[j] * j for j in range(1, len(coeffs))]
    return out


def zz_membership(surface: MonicHypersurface, point: Sequence) -> bool:
    """True iff F and its first floor(N/2) T-derivatives vanish at the point."""
    if len(point) != surface.space_vars + 1:
        raise ValueError("point has wrong length")
    x, t = point[:-1], Fraction(point[-1])
    univ = surface.specialize(x)
    return all(v == 0 for v in _eval_derivatives(univ, t, surface.ell))


def root_multiplicity(surface: MonicHypersurface, x: Sequence, t) -> int:
    """Largest m with (T - t)^m dividing F(x, T)."""
    univ = surface.specialize(x)
    t = Fraction(t)
    values = _eval_derivatives(univ, t, surface.degree)
    for m, v in enumerate(values):
        if v != 0:
            return m
    return surface.degree  # monic: full multiplicity caps at the degree


def _monic_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two nonzero univariate polynomials (ascending coefficients)."""
    while b:
        a, b = b, list(a)
        while len(b) >= len(a):  # b := b mod a
            factor, shift = b[-1] / a[-1], len(b) - len(a)
            for i, c in enumerate(a):
                b[shift + i] -= factor * c
            while b and b[-1] == 0:
                b.pop()
    return [c / a[-1] for c in a]


def deep_roots(surface: MonicHypersurface, x: Sequence) -> list[Fraction]:
    """Roots of F(x, T) of multiplicity at least floor(N/2) + 1.

    Such a root r is unique (two would need more than N roots), so
    the monic G = gcd(F, F', ..., F^(ell)) is (T - r)^k and r = -g_(k-1) / k
    is rational.
    """
    g = deriv = surface.specialize(x)
    for _ in range(surface.ell):
        deriv = [j * c for j, c in enumerate(deriv)][1:]
        g = _monic_gcd(g, deriv)
    k = len(g) - 1
    return [-g[k - 1] / k] if k else []


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
