"""Exact linear algebra over Q.

Rationals are arbitrary-precision ``fractions.Fraction`` values (always
stored reduced, positive denominator).  Linear systems are solved by
integer-preserving Gauss-Jordan elimination: every row is scaled to a
primitive integer vector and row operations use cross-multiplication
followed by content removal, so no rounding can occur anywhere.  Pivots
are chosen deterministically (first nonzero row in column order), which
makes certificates and free-variable selection reproducible.  A
column -> rows index of the nonzero entries, updated as row operations
create and cancel entries, lets the pivot search and the sweep visit only
the rows that hold the column, so the cost follows the fill-in rather
than rows x columns; the pivot is still the first such row.  A row is one
object, a primitive integer vector with its integer right-hand side.  The
certificate for an inconsistent A·x = b is the solution of the dual system
y·A = 0, y·b = 1 (one unknown per row), found by ``solve`` itself: by the
Fredholm alternative the dual is solvable exactly when A·x = b is not.
Every answer is substituted into its rows before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

RationalLike = Union[Fraction, int]


class StructuralError(ValueError):
    """A row does not match the system's variable list."""


class CheckError(ArithmeticError):
    """A computed answer does not satisfy the rows it was computed from."""


@dataclass
class LinearSystem:
    """A list of exact linear equations over named variables."""

    variables: tuple[str, ...]
    rows: list[tuple[dict[int, Fraction], Fraction]] = field(default_factory=list)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        if len(set(self.variables)) != len(self.variables):
            raise StructuralError("duplicate variable names")
        self._index = {v: j for j, v in enumerate(self.variables)}

    def add_row(self, coeffs: Mapping[str, RationalLike], rhs: RationalLike = 0) -> None:
        """Append the equation ``sum(coeffs[v] * v) = rhs`` (sparse form)."""
        row: dict[int, Fraction] = {}
        for name, value in coeffs.items():
            if name not in self._index:
                raise StructuralError(f"unknown variable {name!r}")
            value = Fraction(value)
            if value:
                row[self._index[name]] = value
        self.rows.append((row, Fraction(rhs)))


@dataclass
class Unique:
    """Every variable is determined; ``assignment`` satisfies all rows."""

    assignment: dict[str, Fraction]
    rank: int
    redundant_rows: tuple[int, ...]


@dataclass
class Underdetermined:
    """Consistent but with free variables (set to 0 in ``particular``)."""

    particular: dict[str, Fraction]
    free: tuple[str, ...]
    rank: int
    redundant_rows: tuple[int, ...]


@dataclass
class Inconsistent:
    """No solution.

    ``certificate`` gives rational multipliers on the original rows whose
    combination has all-zero coefficients but right-hand side ``residual`` = 1.
    """

    certificate: dict[int, Fraction]
    residual: Fraction
    rank: int


SolveResult = Union[Unique, Underdetermined, Inconsistent]


def _normalize(row: dict[int, int], rhs: int) -> tuple[dict[int, int], int]:
    """Divide an integer row and its right-hand side by their content."""
    content = abs(rhs)
    for v in row.values():
        content = gcd(content, abs(v))
        if content == 1:
            return row, rhs
    if content > 1:
        row = {j: v // content for j, v in row.items()}
        rhs //= content
    return row, rhs


def _to_integer_rows(sys: LinearSystem):
    """Scale each row to a primitive integer vector."""
    rows = []
    for row, rhs in sys.rows:
        mult = lcm(*(v.denominator for v in row.values()), rhs.denominator)
        irow = {j: int(v * mult) for j, v in row.items()}
        rows.append(_normalize(irow, int(rhs * mult)))
    return rows


def _eliminate(sys: LinearSystem):
    """Gauss-Jordan elimination with deterministic pivoting.

    Returns (pivots, rows) where pivots maps column -> row position and
    each row has been fully reduced (a pivot row retains only its pivot
    column and free columns).  ``holders[j]`` is the set of rows with a
    nonzero entry in column j, kept exact under every row operation, so
    the pivot search and the sweep visit only those rows.
    """
    rows = _to_integer_rows(sys)
    holders: list[set[int]] = [set() for _ in sys.variables]
    for r, (row, _) in enumerate(rows):
        for j in row:
            holders[j].add(r)
    pivots: dict[int, int] = {}
    pivot_rows: set[int] = set()
    for col, holding in enumerate(holders):
        candidates = holding - pivot_rows
        if not candidates:
            continue
        pivot = min(candidates)
        pivots[col] = pivot
        pivot_rows.add(pivot)
        prow, prhs = rows[pivot]
        p = prow[col]
        for r in holding - {pivot}:
            row, rhs = rows[r]
            q = row[col]
            new_row = {j: p * v for j, v in row.items()}
            for j, v in prow.items():
                acc = new_row.get(j, 0) - q * v
                if acc:
                    if j not in new_row:
                        holders[j].add(r)
                    new_row[j] = acc
                elif j in new_row:
                    del new_row[j]
                    holders[j].discard(r)
            rows[r] = _normalize(new_row, p * rhs - q * prhs)
    return pivots, rows


def _certificate(sys: LinearSystem) -> dict[int, Fraction]:
    """Nonzero multipliers y_r on the rows of ``sys`` with y·A = 0, y·b = 1."""
    columns: list[dict[int, Fraction]] = [{} for _ in sys.variables]
    for r, (row, _) in enumerate(sys.rows):
        for j, v in row.items():
            columns[j][r] = v
    rows = [(column, Fraction(0)) for column in columns]
    rows.append(({r: rhs for r, (_, rhs) in enumerate(sys.rows) if rhs}, Fraction(1)))
    dual = solve(LinearSystem(tuple(str(r) for r in range(len(sys.rows))), rows))
    if isinstance(dual, Inconsistent):
        raise CheckError("the system and its dual are both inconsistent")
    y = dual.assignment if isinstance(dual, Unique) else dual.particular
    return {int(name): v for name, v in y.items() if v}


def solve(sys: LinearSystem) -> SolveResult:
    """Solve exactly, classifying the system.

    The result is ``Unique``, ``Underdetermined`` (particular solution with
    the free variables pinned to 0) or ``Inconsistent`` (with a certificate
    combination of original rows reducing to 0 = 1).
    """
    pivots, rows = _eliminate(sys)
    rank = len(pivots)
    redundant = []
    for r, (row, rhs) in enumerate(rows):
        if row:
            continue
        if rhs:
            return Inconsistent(certificate=_certificate(sys), residual=Fraction(1), rank=rank)
        redundant.append(r)
    # After full Jordan reduction a pivot row holds its pivot column plus
    # free columns only; with free variables pinned to 0 the solve is direct.
    assignment = {name: Fraction(0) for name in sys.variables}
    for col, r in pivots.items():
        row, rhs = rows[r]
        assignment[sys.variables[col]] = Fraction(rhs, row[col])
    failed = [r for r, value in enumerate(residual(sys, assignment)) if value]
    if failed:
        raise CheckError(f"the computed answer fails rows {failed[:10]}")
    free = tuple(sys.variables[j] for j in range(len(sys.variables)) if j not in pivots)
    if free:
        return Underdetermined(
            particular=assignment,
            free=free,
            rank=rank,
            redundant_rows=tuple(redundant),
        )
    return Unique(assignment=assignment, rank=rank, redundant_rows=tuple(redundant))


def rank(sys: LinearSystem) -> int:
    """Rank of the coefficient matrix (right-hand sides ignored)."""
    pivots, _ = _eliminate(sys)
    return len(pivots)


def residual(sys: LinearSystem, assignment: Mapping[str, RationalLike]) -> list[Fraction]:
    """Exact residuals ``lhs(assignment) - rhs`` for every row."""
    out = []
    for row, rhs in sys.rows:
        acc = -rhs
        for j, v in row.items():
            acc += v * Fraction(assignment[sys.variables[j]])
        out.append(acc)
    return out
