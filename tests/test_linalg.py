"""Differential tests of the sparse exact linear algebra against sympy.

On small sparse Fraction matrices with zero and duplicate rows, the echelon
rank, reduced rows, span membership, particular solutions and row-space
intersections agree with sympy's Matrix.rank and Matrix.rref, and so do
block-diagonal systems whose rows are interleaved.  Deterministic guards
follow: the solve inserts no row of a block with zero right-hand side,
inserts and membership tests never build the reduced form, and membership
tests stay right while another thread builds it.
"""

import random
import sys
import threading
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from subintegral.linalg import Echelon, intersect_row_spaces, solve_sparse

SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
VALUES = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def matrices(draw, ncols=None):
    """(ncols, rows): each row a dict over columns 0..ncols-1 that may hold
    explicit zeros; some rows repeat or rescale an earlier one."""
    if ncols is None:
        ncols = draw(st.integers(1, 6))
    entry = st.sampled_from(VALUES)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            factor = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            rows.append({c: factor * v for c, v in draw(st.sampled_from(rows)).items()})
        else:
            row = {c: draw(entry) for c in range(ncols) if draw(st.booleans())}
            rows.append(row)
    return ncols, rows


def dense(rows, ncols):
    return sympy.Matrix(
        len(rows),
        ncols,
        lambda i, j: sympy.Rational(str(Fraction(rows[i].get(j, 0)))),
    )


def rank(rows, ncols):
    return dense(rows, ncols).rank() if rows else 0


def sparse(values):
    return {j: Fraction(int(v.p), int(v.q)) for j, v in enumerate(values) if v != 0}


def rref_rows(rows, ncols):
    if not rows:
        return []
    reduced, pivots = dense(rows, ncols).rref()
    return [sparse(reduced.row(i)) for i in range(len(pivots))]


@SETTINGS
@hypothesis.given(matrices())
def test_rank_matches_sympy(m):
    ncols, rows = m
    assert Echelon(rows).rank == rank(rows, ncols)


@SETTINGS
@hypothesis.given(matrices())
def test_rows_are_the_rref(m):
    ncols, rows = m
    assert Echelon(rows).rows() == rref_rows(rows, ncols)


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_contains_matches_rank_test(m, data):
    ncols, rows = m
    ech = Echelon(rows)
    coeff = st.sampled_from([0, 1, -2, Fraction(1, 2)])
    combination = {}
    for row in rows:
        c = data.draw(coeff)
        for j, v in row.items():
            combination[j] = combination.get(j, 0) + c * v
    probe = {j: data.draw(st.sampled_from(VALUES)) for j in range(ncols)}
    for v in (combination, probe):
        expected = rank(rows + [v], ncols) == rank(rows, ncols)
        assert ech.contains(v) == expected


def sympy_solution(rows, rhs, ncols):
    """None when inconsistent, else the particular solution with every free
    unknown 0, as {pivot column: value}."""
    augmented = [row | ({ncols: b} if b else {}) for row, b in zip(rows, rhs)]
    reduced = rref_rows(augmented, ncols + 1)
    if any(min(row) == ncols for row in reduced):
        return None
    return {min(row): row.get(ncols, Fraction(0)) for row in reduced}


def assert_same_solution(solution, expected, ncols):
    # Unknowns absent from either side are 0.
    assert (solution is None) == (expected is None)
    if solution is None:
        return
    assert all(solution.get(j, 0) == expected.get(j, 0) for j in range(ncols))
    assert list(solution) == sorted(solution)


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_solve_matches_rref(m, data):
    ncols, rows = m
    rhs = [data.draw(st.sampled_from(VALUES)) for _ in rows]
    solution = solve_sparse(list(zip(rows, rhs)))
    assert_same_solution(solution, sympy_solution(rows, rhs, ncols), ncols)


@st.composite
def block_systems(draw):
    """(ncols, equations): blocks on disjoint column ranges with their rows
    interleaved; each block's right-hand side is zero, drawn, or made
    inconsistent by repeating one of its rows with rhs + 1."""
    ncols, equations = 0, []
    for _ in range(draw(st.integers(1, 4))):
        width, rows = draw(matrices())
        kind = draw(st.sampled_from(["zero", "drawn", "inconsistent"]))
        rhs = [0 if kind == "zero" else draw(st.sampled_from(VALUES)) for _ in rows]
        if kind == "inconsistent":
            i = draw(st.integers(0, len(rows)))  # len(rows): the empty row
            row, b = (rows[i], rhs[i]) if i < len(rows) else ({}, 0)
            rows, rhs = rows + [row, row], rhs + [b, b + 1]
        equations += [({ncols + c: v for c, v in row.items()}, b) for row, b in zip(rows, rhs)]
        ncols += width
    return ncols, draw(st.permutations(equations))


@SETTINGS
@hypothesis.given(block_systems())
def test_block_systems_match_sympy(system):
    ncols, equations = system
    rows, rhs = [row for row, _ in equations], [b for _, b in equations]
    solution = solve_sparse(equations)
    assert_same_solution(solution, sympy_solution(rows, rhs, ncols), ncols)


def test_homogeneous_blocks_are_never_inserted(monkeypatch):
    # Eight blocks of 5 unknowns, 6 rows each, rows interleaved; the odd
    # blocks have zero right-hand side.
    rng = random.Random(3)
    equations = []
    for block in range(8):
        for row in random_rows(rng, 6, 5, density=0.6):
            row = {5 * block + c: v for c, v in row.items()}
            equations.append((row, Fraction(rng.randint(-2, 2)) if block % 2 == 0 else 0))
    rng.shuffle(equations)
    live_columns = {c for c in range(40) if (c // 5) % 2 == 0}
    inserted = []
    add_row = Echelon.add_row

    def spy(self, row):
        inserted.append({c[1] for c in row if c[0] == 0})
        return add_row(self, row)

    monkeypatch.setattr(Echelon, "add_row", spy)
    solution = solve_sparse(equations)
    monkeypatch.undo()
    assert inserted and all(keys <= live_columns for keys in inserted)
    assert len(inserted) < len(equations)
    rows, rhs = [row for row, _ in equations], [b for _, b in equations]
    assert_same_solution(solution, sympy_solution(rows, rhs, 40), 40)


def test_solve_reads_no_reduced_form(monkeypatch):
    # The particular solution comes from the rhs column alone.
    def back_substitute(self):
        raise AssertionError("solve_sparse built the reduced form")

    monkeypatch.setattr(Echelon, "_back_substitute", back_substitute)
    x = Fraction(1)
    equations = [({0: x, 1: 2 * x, 2: x}, Fraction(3)), ({1: x, 2: -x}, Fraction(1)), ({2: x}, 5)]
    assert solve_sparse(equations) == {0: -14, 1: 6, 2: 5}
    assert solve_sparse(equations + [({0: x, 1: 3 * x}, 0)]) is None


@SETTINGS
@hypothesis.given(matrices(ncols=4), matrices(ncols=4))
def test_intersection_dimension(a, b):
    (ncols, rows_a), (_, rows_b) = a, b
    meet = intersect_row_spaces(rows_a, rows_b)
    dim_a, dim_b = rank(rows_a, ncols), rank(rows_b, ncols)
    assert len(meet) == dim_a + dim_b - rank(rows_a + rows_b, ncols)
    assert rank(meet, ncols) == len(meet)
    for row in meet:
        assert rank(rows_a + [row], ncols) == dim_a
        assert rank(rows_b + [row], ncols) == dim_b


def random_rows(rng, count, ncols, density):
    return [
        {
            c: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for c in range(ncols)
            if rng.random() < density
        }
        for _ in range(count)
    ]


def test_inserts_and_membership_never_build_the_reduced_form(monkeypatch):
    rng = random.Random(7)
    rows = random_rows(rng, 300, 40, density=0.05)

    def refuse(self):
        raise AssertionError("reduced form built during inserts")

    monkeypatch.setattr(Echelon, "_back_substitute", refuse)
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
        ech.contains(row)
        ech.contains(rng.choice(rows))
    monkeypatch.undo()
    assert ech.rows() == rref_rows(rows, 40)


def test_membership_while_another_thread_reduces():
    # A race test: one clean pass is weak evidence, a failure is a real bug.
    rng = random.Random(11)
    ncols = 40
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            rows = random_rows(rng, 30, ncols, density=0.2)
            probes = [
                {c: v * rng.randint(-2, 2) for c, v in row.items()} for row in rows
            ] + random_rows(rng, 30, ncols, density=0.2)
            reference = Echelon(rows)
            expected = [reference.contains(p) for p in probes]
            expected_rows = reference.rows()

            shared = Echelon(rows)
            start = threading.Barrier(5, timeout=60)
            answers, errors = [], []

            def ask():
                try:
                    start.wait()
                    answers.append([shared.contains(p) for p in probes])
                except Exception as exc:  # reported below
                    errors.append(exc)

            def read_rows():
                try:
                    start.wait()
                    answers.append(shared.rows())
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=ask) for _ in range(4)]
            threads.append(threading.Thread(target=read_rows))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert errors == []
            assert answers.count(expected) == 4
            assert expected_rows in answers
    finally:
        sys.setswitchinterval(old_interval)
