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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import List, Optional, Sequence, Tuple

from .closure import in_i_greater
from .errors import BudgetExceeded, PreconditionError
from .ideals import MonomialIdeal
from .linalg import solve_sparse
from .poly import SparsePoly

# A polynomial in the auxiliary variable T whose coefficients are ring
# elements: entry j is the coefficient of T^j.
TPoly = Tuple[SparsePoly, ...]


@dataclass(frozen=True)
class RRSSystem:
    q: int
    coeffs: Tuple[SparsePoly, ...]  # a_1 .. a_{2q+1}

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.q + 1:
            raise ValueError("need exactly 2q+1 coefficients")

    @property
    def window(self) -> range:
        return range(self.q + 1, 2 * self.q + 2)


def window_equations(system: RRSSystem) -> List[TPoly]:
    """The window polynomials F_n(T) = T^n + sum C(n,i) a_i T^{n-i}."""
    out: List[TPoly] = []
    nvars = system.coeffs[0].nvars
    for n in system.window:
        coeffs = [SparsePoly.zero(nvars) for _ in range(n + 1)]
        coeffs[n] = SparsePoly.constant(nvars, 1)
        for i in range(1, n + 1):
            coeffs[n - i] = coeffs[n - i] + comb(n, i) * system.coeffs[i - 1]
        out.append(tuple(coeffs))
    return out


def _eval_identity(h: SparsePoly, system: RRSSystem, n: int) -> SparsePoly:
    total = h**n
    for i in range(1, n + 1):
        total = total + comb(n, i) * system.coeffs[i - 1] * h ** (n - i)
    return total


def verify_failure(
    h: SparsePoly, system: RRSSystem, ideal: MonomialIdeal
) -> Optional[str]:
    """None when the certificate is valid; otherwise the first failure."""
    for n in system.window:
        if not _eval_identity(h, system, n).is_zero:
            return f"identity of degree {n} does not vanish"
    for i, a in enumerate(system.coeffs, start=1):
        if not ideal.power(i).contains(a):
            return f"coefficient a_{i} is not in the {i}-th ideal power"
    return None


def verify(h: SparsePoly, system: RRSSystem, ideal: MonomialIdeal) -> bool:
    return verify_failure(h, system, ideal) is None


def construct_from_igt(
    a: SparsePoly, ideal: MonomialIdeal, q_max: int = 32
) -> RRSSystem:
    """Build a certificate for an element with asymptotic Samuel value > 1.

    Finds the least q <= q_max with a^n in I^{n+1} throughout the window
    q+1 <= n <= 2q+1, then sets a_1 = ... = a_q = 0, a_{q+1} = -a^{q+1} and

        a_{q+i} = -(a^{q+i} + sum_{j<i} C(q+i, q+j) a_{q+j} a^{i-j})

    so each window identity telescopes to zero.  Every coefficient comes
    out as an integer multiple of the matching power of a, hence lies in
    I^{q+i+1}.
    """
    if not in_i_greater(a, ideal):
        raise PreconditionError("element is not in i_greater of the ideal")

    powers: dict[int, SparsePoly] = {1: a}

    def apow(n: int) -> SparsePoly:
        if n not in powers:
            powers[n] = a ** n
        return powers[n]

    def window_holds(q: int) -> bool:
        return all(
            ideal.power(n + 1).contains(apow(n)) for n in range(q + 1, 2 * q + 2)
        )

    q = next((k for k in range(q_max + 1) if window_holds(k)), None)
    if q is None:
        raise BudgetExceeded(f"no certificate window found with q <= {q_max}")

    nvars = a.nvars
    coeffs: List[SparsePoly] = [SparsePoly.zero(nvars) for _ in range(2 * q + 1)]
    coeffs[q] = -apow(q + 1)
    for i in range(2, q + 2):
        total = apow(q + i)
        for j in range(1, i):
            total = total + comb(q + i, q + j) * coeffs[q + j - 1] * apow(i - j)
        coeffs[q + i - 1] = -total
    system = RRSSystem(q=q, coeffs=tuple(coeffs))
    failure = verify_failure(a, system, ideal)
    if failure is not None:
        raise AssertionError(f"constructed certificate failed: {failure}")
    return system


def _degree_basis(ideal: MonomialIdeal, max_degree: int) -> List[Tuple[int, ...]]:
    """Exponents of the monomials of the ideal of total degree <= max_degree,
    in lex order.  Above each prefix p of the first n - 1 exponents they run
    from the least last exponent of a generator below p up to max_degree - |p|."""
    out = []
    for p in product(range(max_degree + 1), repeat=ideal.nvars - 1):
        top = max_degree - sum(p)
        if top < 0:
            continue
        low = ideal.least_last_exponent(p)
        if low <= top:
            out.extend(p + (k,) for k in range(low, top + 1))
    return out


def search_at(
    h: SparsePoly, ideal: MonomialIdeal, q: int, degree_slack: int
) -> Optional[RRSSystem]:
    """Solve the window identities at a fixed q with unknown coefficients.

    Unknowns are the coefficients of each a_i over the monomials of I^i of
    total degree <= i*deg(h) + degree_slack; the identities are linear in
    them, so a single sparse solve decides feasibility at this cutoff.
    """
    nvars = h.nvars
    deg_h = max(h.total_degree(), 1)
    basis = {
        i: _degree_basis(ideal.power(i), i * deg_h + degree_slack)
        for i in range(1, 2 * q + 2)
    }

    h_powers = {0: SparsePoly.constant(nvars, 1)}
    for n in range(1, 2 * q + 2):
        h_powers[n] = h_powers[n - 1] * h

    equations: dict[Tuple[int, Tuple[int, ...]], dict] = {}

    def eq_row(n: int, exp: Tuple[int, ...]) -> dict:
        return equations.setdefault((n, exp), {})

    rhs: dict[Tuple[int, Tuple[int, ...]], Fraction] = {}
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
    candidate = RRSSystem(q=q, coeffs=tuple(coeffs))
    failure = verify_failure(h, candidate, ideal)
    if failure is not None:
        raise AssertionError(f"search produced an invalid certificate: {failure}")
    return candidate


def bounded_search(
    h: SparsePoly,
    ideal: MonomialIdeal,
    q_max: int = 6,
    degree_slack: int | None = None,
) -> Optional[RRSSystem]:
    """First certificate found scanning q = 0, 1, ..., q_max.

    The degree cutoff (default slack: twice deg h) is a completeness
    heuristic, so not-found never certifies absence.
    """
    if degree_slack is None:
        degree_slack = 2 * max(h.total_degree(), 1)
    for q in range(q_max + 1):
        found = search_at(h, ideal, q, degree_slack)
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
