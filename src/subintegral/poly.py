"""Exact sparse multivariate polynomials over the rationals.

A polynomial is stored as a dictionary mapping exponent vectors (tuples of
nonnegative ints, one entry per variable) to nonzero Fraction coefficients:

    x^2*y + 3/2  in QQ[x, y]   ->   {(2, 1): Fraction(1), (0, 0): Fraction(3, 2)}

The zero polynomial has an empty term dictionary.  All arithmetic is exact;
no floating point appears anywhere.  Instances are immutable: every operation
returns a fresh polynomial, so values can be shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

Exponent = tuple[int, ...]

_DEFAULT_NAMES = ("x", "y", "z", "w")


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:nvars]
    return tuple(f"x{i + 1}" for i in range(nvars))


class SparsePoly:
    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[tuple(exp)] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "SparsePoly":
        """Wrap terms that are already clean, without copying or checking:
        tuple exponents of length nvars with no negative entry, each mapped
        to a nonzero Fraction.  For internal results only; input from
        outside goes through the validating constructor."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff=1) -> "SparsePoly":
        exp = tuple(exponent)
        return cls(len(exp), {exp: Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterable[tuple[Exponent, Fraction]]:
        return self._terms.items()

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical for printing)."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponent), Fraction(0))

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def min_degree(self) -> int:
        """Minimal term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return min(sum(e) for e in self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        other = self._coerce(other)
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            val = terms.get(exp, 0) + coeff
            if val == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = val
        return SparsePoly._from_clean(self.nvars, terms)

    def __radd__(self, other) -> "SparsePoly":
        return self + other

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._from_clean(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SparsePoly.zero(self.nvars)
            return SparsePoly._from_clean(
                self.nvars, {e: c * other for e, c in self._terms.items()}
            )
        other = self._coerce(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                val = terms.get(exp, 0) + c1 * c2
                if val == 0:
                    terms.pop(exp, None)
                else:
                    terms[exp] = val
        return SparsePoly._from_clean(self.nvars, terms)

    def __rmul__(self, other) -> "SparsePoly":
        return self * other

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = SparsePoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return SparsePoly.constant(self.nvars, other)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        vals = [Fraction(p) for p in point]
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            prod = coeff
            for v, e in zip(vals, exp):
                if e:
                    prod *= v**e
            total += prod
        return total

    def compose(self, substitutions: Sequence["SparsePoly"]) -> "SparsePoly":
        """Substitute substitutions[i] for variable i.  All substitutions must
        live in a common ring, which becomes the ring of the result."""
        if len(substitutions) != self.nvars:
            raise ValueError("need one substitution per variable")
        if self.nvars == 0:
            raise ValueError("no variables to substitute")
        target = substitutions[0].nvars
        if any(s.nvars != target for s in substitutions):
            raise ValueError("substitutions live in different rings")
        powers: list[dict[int, SparsePoly]] = [dict() for _ in range(self.nvars)]

        def power(i: int, e: int) -> SparsePoly:
            cache = powers[i]
            if e not in cache:
                cache[e] = substitutions[i] ** e
            return cache[e]

        result = SparsePoly.zero(target)
        for exp, coeff in self._terms.items():
            term = SparsePoly.constant(target, coeff)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def derivative(self, var: int) -> "SparsePoly":
        terms: dict[Exponent, Fraction] = {}
        for exp, coeff in self._terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            terms[tuple(new)] = coeff * e
        return SparsePoly._from_clean(self.nvars, terms)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- printing ------------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if not self._terms:
            return "0"
        names = names or default_names(self.nvars)
        parts = []
        for exp, coeff in self.sorted_terms():
            body = monomial_string(exp, names)
            if not any(exp):
                frag = _coeff_str(coeff)
            elif coeff == 1:
                frag = body
            elif coeff == -1:
                frag = f"-{body}"
            else:
                frag = f"{_coeff_str(coeff)}*{body}"
            parts.append(frag)
        out = parts[0]
        for frag in parts[1:]:
            if frag.startswith("-"):
                out += " - " + frag[1:]
            else:
                out += " + " + frag
        return out

    def __repr__(self):
        return f"SparsePoly({self.to_string()!r})"


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def monomial_string(exponent: Exponent, names: Sequence[str] | None = None) -> str:
    """x^exponent written as to_string writes it: the factors name^e in
    variable order (the exponent 1 left out), or "1" for the zero exponent."""
    names = names or default_names(len(exponent))
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponent) if e]
    return "*".join(factors) or "1"
