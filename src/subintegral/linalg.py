"""Sparse exact linear algebra over the rationals.

Rows are dictionaries mapping hashable, totally ordered column keys to
nonzero Fractions.  The Echelon class keeps a row echelon basis, extended
by one forward elimination per insert; the reduced row echelon form is
built from it only when it is read.  Everything is deterministic given the
column order.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from fractions import Fraction

Row = dict[Hashable, Fraction]


def _clean(row: Row) -> Row:
    return {c: v for c, v in row.items() if v != 0}


def _clear(row: Row, col: Hashable, pivot_row: Row) -> None:
    """Subtract row[col] times pivot_row, which has a 1 at col, in place."""
    factor = row[col]
    for c, v in pivot_row.items():
        val = row.get(c, 0) - factor * v
        if val:
            row[c] = val
        else:
            del row[c]


class Echelon:
    """Row echelon form kept as {pivot column: row}.

    Each row has a leading 1 at its pivot column and entries only at
    columns >= the pivot.  Inserting a row does no pass over the other
    rows; the reduced form, in which no row has an entry at another row's
    pivot, is built in place on the first read after a batch of inserts.
    """

    def __init__(self, rows: Iterable[Row] = ()):
        self.pivots: dict[Hashable, Row] = {}
        self._reduced = True
        for row in rows:
            self.add_row(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: Row, full: bool) -> Row:
        """The one elimination loop: clear the least pivot column present,
        until none is left (full) or the row leads with a non-pivot column."""
        row = _clean(row)
        pivots = self.pivots
        while row:
            if full:
                hits = [c for c in row if c in pivots]
                if not hits:
                    break
                col = min(hits)
            else:
                col = min(row)
                if col not in pivots:
                    break
            _clear(row, col, pivots[col])
        return row

    def reduce(self, row: Row) -> Row:
        """Residual of row against the basis, with no pivot-column entries.
        It is the same for every basis of the span, and empty iff the row
        is in the span."""
        return self._eliminate(row, full=True)

    def contains(self, row: Row) -> bool:
        # Every nonzero element of the span leads with a pivot column, so a
        # non-pivot leading column is an immediate miss.
        return not self._eliminate(row, full=False)

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        residual = self.reduce(row)
        if not residual:
            return False
        lead = min(residual)
        if residual[lead] != 1:
            inverse = Fraction(1) / residual[lead]
            residual = {c: v * inverse for c, v in residual.items()}
        self.pivots[lead] = residual
        self._reduced = False
        return True

    def _back_substitute(self) -> None:
        """Clear every pivot column from the rows of the other pivots.

        Rows are visited in decreasing pivot order, so the rows used to
        clear a column are already reduced.  Each row is built afresh and
        then assigned: a concurrent reader sees the old row or the new one,
        which span the same space.
        """
        if self._reduced:
            return
        pivots = self.pivots
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            hits = [c for c in row if c != lead and c in pivots]
            if not hits:
                continue
            row = dict(row)
            for col in hits:
                _clear(row, col, pivots[col])
            pivots[lead] = row
        self._reduced = True

    def rows(self) -> list[Row]:
        """Reduced row echelon basis, sorted by pivot column."""
        self._back_substitute()
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

    def same_space(self, other: "Echelon") -> bool:
        # The reduced row echelon form of a span is unique.
        return self.rows() == other.rows()


def intersect_row_spaces(rows_a: Iterable[Row], rows_b: Iterable[Row]) -> list[Row]:
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
    equations: Sequence[tuple[Row, Fraction]],
) -> dict[Hashable, Fraction] | None:
    """Particular solution of a sparse linear system (free unknowns set to 0).

    Each equation is (coefficient row over unknown keys, right-hand side).
    Returns None when the system is inconsistent, and otherwise a dict in
    sorted key order; unknowns absent from it are 0.

    Only the blocks that carry a nonzero right-hand side are eliminated.
    Join two equations when they share an unknown; each connected component
    (block) is a subsystem on unknowns of its own, and the result is exact:

    - Elimination only combines rows that share a pivot column, so each
      block is eliminated on its own: the union of the blocks' echelon
      forms is an echelon form of the whole coefficient matrix, and the
      system is consistent iff every block is.
    - The rhs column (1,) sorts after every unknown, so it becomes a pivot
      only when some combination of rows reads 0 = nonzero, that is, only
      when the system is inconsistent.
    - A block whose right-hand side is zero is consistent, and its
      particular solution with free unknowns 0 is 0: the zero vector
      solves it and has every free unknown 0.
    - The pivot set is the set of leading columns of the nonzero vectors
      of the row space, and the particular solution is the one solution
      that is 0 at every non-pivot unknown.  Neither depends on the order
      in which rows are inserted, so leaving out the homogeneous blocks
      changes no value.
    """
    parent: dict[Hashable, Hashable] = {}

    def find(key: Hashable) -> Hashable:
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    supports = []
    for coeffs, rhs in equations:
        keys = [k for k, v in coeffs.items() if v]
        if not keys and rhs:
            return None  # 0 = nonzero
        for k in keys:
            parent.setdefault(k, k)
        if keys:
            root = find(keys[0])
            for k in keys[1:]:
                parent[find(k)] = root
        supports.append(keys)
    live = {find(keys[0]) for keys, (_, rhs) in zip(supports, equations) if rhs}

    # Wrap unknown keys as (0, key) and the right-hand side as (1,); the tag
    # keeps the rhs column last in the ordering.
    ech = Echelon()
    for keys, (coeffs, rhs) in zip(supports, equations):
        if keys and find(keys[0]) in live:
            row = {(0, k): v for k, v in coeffs.items()}
            if rhs != 0:
                row[(1,)] = Fraction(rhs)
            ech.add_row(row)
    pivots = ech.pivots
    if (1,) in pivots:
        return None  # a row reduced to 0 = nonzero constant
    # Row p reads x_p + sum(row[q] * x_q) = rhs over columns q > p, and the
    # free unknowns are 0, so visiting the pivots in decreasing order finds
    # every x_q it needs already solved.  Only the rhs column is read.
    values: dict[Hashable, Fraction] = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        x = row.get((1,), Fraction(0))
        for q, v in row.items():
            if q in values:
                x -= v * values[q]
        values[p] = x
    return {p[1]: values[p] for p in sorted(values)}

