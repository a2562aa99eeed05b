"""Sparse exact linear algebra over the rationals.

Rows are dictionaries mapping hashable, totally ordered column keys to
nonzero Fractions.  The Echelon class maintains a reduced row echelon
basis incrementally; everything is deterministic given the column order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Row = Dict[Hashable, Fraction]


def _clean(row: Row) -> Row:
    return {c: v for c, v in row.items() if v != 0}


def scale(row: Row, factor: Fraction) -> Row:
    if factor == 0:
        return {}
    return {c: v * factor for c, v in row.items()}


def axpy(target: Row, factor: Fraction, source: Row) -> Row:
    """target + factor * source, materialized as a new clean row."""
    out = dict(target)
    for c, v in source.items():
        val = out.get(c, Fraction(0)) + factor * v
        if val == 0:
            out.pop(c, None)
        else:
            out[c] = val
    return out


class Echelon:
    """Reduced row echelon form kept as {pivot column: normalized row}."""

    def __init__(self, rows: Iterable[Row] = ()):
        self.pivots: Dict[Hashable, Row] = {}
        for row in rows:
            self.add_row(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Fully reduced residual of row against the current basis: every
        pivot column is eliminated.  Empty iff the row is in the span."""
        row = _clean(row)
        while True:
            hits = [c for c in row if c in self.pivots]
            if not hits:
                return row
            col = min(hits)
            row = axpy(row, -row[col], self.pivots[col])

    def contains(self, row: Row) -> bool:
        # Leading-column elimination suffices for membership: every row
        # space element leads with a pivot column, so a non-pivot leading
        # column is an immediate miss.
        row = _clean(row)
        while row:
            lead = min(row)
            pivot_row = self.pivots.get(lead)
            if pivot_row is None:
                return False
            row = axpy(row, -row[lead], pivot_row)
        return True

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        residual = self.reduce(row)
        if not residual:
            return False
        lead = min(residual)
        normalized = scale(residual, Fraction(1) / residual[lead])
        # Keep the basis fully reduced: clear the new pivot column everywhere.
        for col, existing in list(self.pivots.items()):
            coeff = existing.get(lead)
            if coeff:
                self.pivots[col] = axpy(existing, -coeff, normalized)
        self.pivots[lead] = normalized
        return True

    def rows(self) -> List[Row]:
        """Canonical basis rows, sorted by pivot column."""
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

    def same_space(self, other: "Echelon") -> bool:
        if self.rank != other.rank:
            return False
        return all(other.contains(r) for r in self.rows())


def intersect_row_spaces(rows_a: Iterable[Row], rows_b: Iterable[Row]) -> List[Row]:
    """Basis of the intersection of two row spaces (Zassenhaus block trick).

    Columns are tagged (0, c) and (1, c); rows [a | a] and [b | 0] are
    reduced together, and surviving rows with vanishing first block carry
    the intersection in their second block.
    """
    ech = Echelon()
    for a in rows_a:
        ech.add_row({(0, c): v for c, v in a.items()} | {(1, c): v for c, v in a.items()})
    for b in rows_b:
        ech.add_row({(0, c): v for c, v in b.items()})
    out = []
    for row in ech.rows():
        if any(tag == 0 for tag, _ in row):
            continue
        extracted = {c: v for (_, c), v in row.items()}
        if extracted:
            out.append(extracted)
    return out


def solve_sparse(
    equations: Sequence[Tuple[Row, Fraction]],
) -> Dict[Hashable, Fraction] | None:
    """Particular solution of a sparse linear system (free unknowns set to 0).

    Each equation is (coefficient row over unknown keys, right-hand side).
    Returns None when the system is inconsistent.
    """
    # Wrap unknown keys as (0, key) and the right-hand side as (1,); the tag
    # keeps the rhs column last in the ordering, so it is only ever a pivot
    # when some row reduces to 0 = nonzero.
    ech = Echelon()
    for coeffs, rhs in equations:
        row = {(0, k): v for k, v in coeffs.items()}
        if rhs != 0:
            row[(1,)] = Fraction(rhs)
        ech.add_row(row)
    solution: Dict[Hashable, Fraction] = {}
    for pivot, row in ech.pivots.items():
        if pivot == (1,):
            return None  # a row reduced to 0 = nonzero constant
    for pivot, row in ech.pivots.items():
        # Row reads: x_pivot + sum(coeff * x_free) = rhs; frees are zero.
        rhs = row.get((1,), Fraction(0))
        solution[pivot[1]] = rhs
    return solution


def rank_of_vectors(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a small dense collection of rational vectors."""
    ech = Echelon()
    for v in vectors:
        ech.add_row({i: Fraction(x) for i, x in enumerate(v) if x != 0})
    return ech.rank
