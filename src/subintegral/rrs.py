"""Certificates of weak subintegrality over an ideal.

An element h is weakly subintegral over the ideal I when there are a
nonnegative integer q and coefficients a_1, ..., a_{2q+1} with a_i in I^i
satisfying the window of monic equations

    h^n + sum_{i=1..n} C(n,i) a_i h^{n-i} = 0      for q+1 <= n <= 2q+1.

(The classical sign factor (-1)^i is absorbed into a_i.)  Consecutive
window polynomials are linked by differentiation in the auxiliary variable:
d/dT F_n = n * F_{n-1}, which is what derivative_chain_check verifies.

Two producers are provided: a constructive recursion that works whenever
the asymptotic Samuel value of h exceeds 1 (h in i_greater), and a bounded
linear-algebra search over coefficient ansatzes that can also find
certificates for elements of I itself.  The search can fail without
certifying anything: not-found is inconclusive.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb
from operator import add

from .closure import in_i_greater
from .errors import BudgetExceeded, DimensionMismatch, PreconditionError
from .ideals import MonomialIdeal, ord_in
from .linalg import solve_sparse
from .poly import SparsePoly

# A polynomial in the auxiliary variable T whose coefficients are ring
# elements: entry j is the coefficient of T^j.
TPoly = tuple[SparsePoly, ...]


class RRSSystem(namedtuple("RRSSystem", "q coeffs")):
    """A certificate: q and the coefficients a_1 .. a_{2q+1}."""

    __slots__ = ()

    def __new__(cls, q: int, coeffs: tuple[SparsePoly, ...]):
        if len(coeffs) != 2 * q + 1:
            raise ValueError("need exactly 2q+1 coefficients")
        return super().__new__(cls, q, coeffs)

    @property
    def window(self) -> range:
        return range(self.q + 1, 2 * self.q + 2)


def window_equations(system: RRSSystem) -> list[TPoly]:
    """The window polynomials F_n(T) = T^n + sum C(n,i) a_i T^{n-i}: the
    coefficient of T^(n-i) is C(n,i) a_i, listed from T^0 up."""
    a = system.coeffs
    one = SparsePoly.constant(a[0].nvars, 1)
    return [
        tuple(comb(n, i) * a[i - 1] for i in range(n, 0, -1)) + (one,)
        for n in system.window
    ]


def _powers(h: SparsePoly, top: int) -> list[SparsePoly]:
    """h^0, h^1, ..., h^top, each from the one before."""
    out = [SparsePoly.constant(h.nvars, 1)]
    for _ in range(top):
        out.append(out[-1] * h)
    return out


def _identity_failure(system: RRSSystem, powers: list[SparsePoly]) -> str | None:
    """The first window identity sum_{i=0..n} C(n,i) a_i h^(n-i) (a_0 = 1)
    that does not vanish, with powers = [h^0, ..., h^(2q+1)]; None when all
    vanish.  Each identity is multiplied out into one term dictionary."""
    nvars = powers[0].nvars
    if any(a.nvars != nvars for a in system.coeffs):
        raise ValueError("mixed variable counts")
    for n in system.window:
        total = dict(powers[n].items())
        for i in range(1, n + 1):
            binom = comb(n, i)
            for e1, c1 in system.coeffs[i - 1].items():
                c1 *= binom
                for e2, c2 in powers[n - i].items():
                    e = tuple(map(add, e1, e2))
                    total[e] = total.get(e, 0) + c1 * c2
        if any(total.values()):
            return f"identity of degree {n} does not vanish"
    return None


def verify_failure(
    h: SparsePoly, system: RRSSystem, ideal: MonomialIdeal
) -> str | None:
    """None when the certificate is valid; otherwise the first failure.

    a_i in I^i is decided termwise by ord_in with cap i; no power of the
    ideal is built."""
    failure = _identity_failure(system, _powers(h, 2 * system.q + 1))
    if failure is not None:
        return failure
    for i, a in enumerate(system.coeffs, start=1):
        if ord_in(a, ideal, cap=i) < i:
            return f"coefficient a_{i} is not in the {i}-th ideal power"
    return None


def verify(h: SparsePoly, system: RRSSystem, ideal: MonomialIdeal) -> bool:
    return verify_failure(h, system, ideal) is None


def construct_from_igt(
    a: SparsePoly, ideal: MonomialIdeal, q_max: int = 32
) -> RRSSystem:
    """Build a certificate for an element with asymptotic Samuel value > 1.

    Finds the least q <= q_max with a^n in I^{n+1} throughout the window
    q+1 <= n <= 2q+1.  The exponents n = 1, 2, ... are tested once each:
    a failure at n lies in the window of every q with (n-1)/2 <= q < n, so
    it rules out every q < n, and the least q is then n.

    Then a_1 = ... = a_q = 0 and a_k = m_k a^k for k > q, with the integers

        m_{q+1} = -1,   m_{q+i} = -(1 + sum_{j<i} C(q+i, q+j) m_{q+j}),

    so each window identity a^n (1 + sum_k C(n,k) m_k) telescopes to zero.
    Every coefficient is an integer multiple of a power a^k that the scan
    put in I^{k+1}, one power better than a_k in I^k needs; the identities
    are checked in full before the certificate is returned.
    """
    if not in_i_greater(a, ideal):
        raise PreconditionError("element is not in i_greater of the ideal")

    powers = [SparsePoly.constant(a.nvars, 1)]
    q, n = 0, 1
    while n <= 2 * q + 1:
        powers.append(powers[-1] * a)
        if ord_in(powers[n], ideal, cap=n + 1) <= n:
            q = n
            if q > q_max:
                raise BudgetExceeded(f"no certificate window found with q <= {q_max}")
        n += 1

    multipliers: list[int] = []
    for i in range(1, q + 2):
        multipliers.append(
            -(1 + sum(comb(q + i, q + j) * m for j, m in enumerate(multipliers, start=1)))
        )
    coeffs = [SparsePoly.zero(a.nvars)] * q + [
        m * powers[k] for k, m in enumerate(multipliers, start=q + 1)
    ]
    system = RRSSystem(q=q, coeffs=tuple(coeffs))
    failure = _identity_failure(system, powers)
    if failure is not None:
        raise AssertionError(f"constructed certificate failed: {failure}")
    return system


def _degree_basis(ideal: MonomialIdeal, max_degree: int) -> list[tuple[int, ...]]:
    """Exponents of the monomials of the ideal of total degree <= max_degree,
    in lex order.  Above each prefix p of the first n - 1 exponents they run
    from the least last exponent of a generator below p up to max_degree - |p|."""
    out = []
    for p, low, _ in ideal.staircase([max_degree + 1] * (ideal.nvars - 1)):
        top = max_degree - sum(p)
        if low <= top:
            out.extend(p + (k,) for k in range(low, top + 1))
    return out


def search_at(
    h: SparsePoly,
    ideal: MonomialIdeal,
    q: int,
    *,
    powers: list[MonomialIdeal] | None = None,
) -> RRSSystem | None:
    """Solve the window identities at a fixed q with unknown coefficients.

    Unknowns are the coefficients of each a_i over the monomials of I^i of
    total degree <= (i + 2) * deg(h); the identities are linear in them, so
    a single sparse solve decides feasibility at this cutoff.  I^i is built
    as I^(i-1) * I, one product per i.  `powers`, when given, is the list
    [I, I^2, ...] so far; it is extended in place up to I^(2q+1), so that
    bounded_search builds each power once for every q it tries.

    At q = 0 the window is the one identity h + a_1 = 0, so a_1 = -h and a
    certificate exists exactly when h is in I; nothing is solved.
    """
    if h.nvars != ideal.nvars:
        raise DimensionMismatch("polynomial and ideal variable counts differ")
    if q == 0:
        if not ideal.contains(h):
            return None
        return _checked(h, RRSSystem(q=0, coeffs=(-h,)), ideal)
    nvars = h.nvars
    deg_h = max(h.total_degree(), 1)
    if powers is None:
        powers = [ideal]
    while len(powers) < 2 * q + 1:
        powers.append(powers[-1] * ideal)
    basis = {
        i: _degree_basis(powers[i - 1], (i + 2) * deg_h) for i in range(1, 2 * q + 2)
    }
    h_powers = _powers(h, 2 * q + 1)

    equations: dict[tuple[int, tuple[int, ...]], dict] = {}

    def eq_row(n: int, exp: tuple[int, ...]) -> dict:
        return equations.setdefault((n, exp), {})

    rhs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for n in range(q + 1, 2 * q + 2):
        for exp, c in h_powers[n].items():
            rhs[(n, exp)] = rhs.get((n, exp), Fraction(0)) + c
            eq_row(n, exp)
        for i in range(1, n + 1):
            binom = comb(n, i)
            for e_basis in basis[i]:
                for exp_h, c in h_powers[n - i].items():
                    exp = tuple(a + b for a, b in zip(e_basis, exp_h))
                    eq_row(n, exp)[(i, e_basis)] = eq_row(n, exp).get(
                        (i, e_basis), Fraction(0)
                    ) + binom * c

    system_rows = [
        (row, -rhs.get(key, Fraction(0))) for key, row in equations.items()
    ]
    solution = solve_sparse(system_rows)
    if solution is None:
        return None
    coeffs = []
    for i in range(1, 2 * q + 2):
        terms = {
            e: solution.get((i, e), Fraction(0))
            for e in basis[i]
            if solution.get((i, e))
        }
        coeffs.append(SparsePoly(nvars, terms))
    return _checked(h, RRSSystem(q=q, coeffs=tuple(coeffs)), ideal)


def _checked(h: SparsePoly, candidate: RRSSystem, ideal: MonomialIdeal) -> RRSSystem:
    failure = verify_failure(h, candidate, ideal)
    if failure is not None:
        raise AssertionError(f"search produced an invalid certificate: {failure}")
    return candidate


def bounded_search(
    h: SparsePoly, ideal: MonomialIdeal, q_max: int = 6
) -> RRSSystem | None:
    """First certificate found scanning q = 0, 1, ..., q_max.

    The degree cutoff of search_at is a completeness heuristic, so
    not-found never certifies absence.  The powers I, ..., I^(2 q_max + 1)
    are built once, as the first q that needs each one reaches it.
    """
    powers = [ideal]
    for q in range(q_max + 1):
        found = search_at(h, ideal, q, powers=powers)
        if found is not None:
            return found
    return None


def _tpoly_derivative(p: TPoly) -> TPoly:
    nvars = p[0].nvars
    if len(p) == 1:
        return (SparsePoly.zero(nvars),)
    return tuple(p[j + 1] * (j + 1) for j in range(len(p) - 1))


def derivative_chain_check(
    equations: RRSSystem | Sequence[TPoly],
) -> bool:
    """Check d/dT F_n = n * F_{n-1} across the window, exactly.

    Accepts either a certificate (whose window polynomials are generated on
    the fly) or an explicit list of T-polynomials ordered by degree.
    """
    polys = (
        window_equations(equations)
        if isinstance(equations, RRSSystem)
        else [tuple(p) for p in equations]
    )
    for prev, cur in zip(polys, polys[1:]):
        n = len(cur) - 1
        derived = _tpoly_derivative(cur)
        scaled = tuple(c * n for c in prev)
        width = max(len(derived), len(scaled))
        nvars = cur[0].nvars
        pad = lambda t: tuple(t) + (SparsePoly.zero(nvars),) * (width - len(t))
        if pad(derived) != pad(scaled):
            return False
    return True
