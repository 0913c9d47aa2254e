"""Exact linear algebra over Q.

``add_row`` takes ``int`` or ``fractions.Fraction`` entries and stores each
row as a primitive integer vector with an integer right-hand side; only
answers are ``Fraction``s.  A ``LinearSystem`` is a plain class whose
construction rejects duplicate variable names and indexes them; the
results ``Unique``, ``Underdetermined`` and ``Inconsistent`` are
``NamedTuple``s.  Systems are solved by integer-preserving forward
elimination on a copy of the rows, then back-substitution in integers over
one common denominator, so no rounding can occur.
Pivots are chosen deterministically (first nonzero row in column order),
which makes certificates and free-variable selection reproducible.  A
column -> rows index of the nonzero entries, kept exact under every row
operation, lets the pivot search and the elimination visit only the rows
that hold the column, so the cost follows the fill-in rather than rows x
columns.  A pivot clears its column from the rows that are not yet pivots
only, so a caller that puts the columns most rows share last keeps them out
of most row operations.  The certificate for an inconsistent A·x = b solves
the dual system y·A = 0, y·b = 1 (one unknown per row) through ``solve``
itself: by the Fredholm alternative the dual is solvable exactly when
A·x = b is not.  It multiplies ``LinearSystem.rows`` as stored.  Every
answer is substituted into every row, in integers over one common
denominator, before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Mapping, NamedTuple, Union


class StructuralError(ValueError):
    """A row does not match the system's variable list, or holds a non-rational entry."""


class CheckError(ArithmeticError):
    """A computed answer does not satisfy the rows it was computed from."""


class LinearSystem:
    """Exact linear equations over named variables, as integer rows."""

    def __init__(self, variables, rows: list[tuple[dict[int, int], int]] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        self.rows = [] if rows is None else rows
        self._index = {v: j for j, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise StructuralError("duplicate variable names")

    def add_row(self, coeffs: Mapping[str, Rational], rhs: Rational = 0) -> None:
        """Append ``sum(coeffs[v] * v) = rhs``, scaled to a primitive integer row."""
        # an all-int row, the catalog's case, needs neither the ABC check nor scaling
        integral = type(rhs) is int and all(type(v) is int for v in coeffs.values())
        if not integral and not all(isinstance(v, Rational) for v in (rhs, *coeffs.values())):
            raise StructuralError(f"row {dict(coeffs)!r} = {rhs!r} has a non-rational entry")
        row: dict[int, Rational] = {}
        for name, value in coeffs.items():
            if name not in self._index:
                raise StructuralError(f"unknown variable {name!r}")
            if value:
                row[self._index[name]] = value
        if not integral:
            scale = lcm(rhs.denominator, *(v.denominator for v in row.values()))
            row = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
            rhs = rhs.numerator * (scale // rhs.denominator)
        self.rows.append(_normalize(row, rhs))


class Unique(NamedTuple):
    """Every variable is determined; ``assignment`` satisfies all rows."""

    assignment: dict[str, Fraction]
    rank: int
    redundant_rows: tuple[int, ...]


class Underdetermined(NamedTuple):
    """Consistent but with free variables (set to 0 in ``particular``)."""

    particular: dict[str, Fraction]
    free: tuple[str, ...]
    rank: int
    redundant_rows: tuple[int, ...]


class Inconsistent(NamedTuple):
    """No solution.

    ``certificate`` gives multipliers on ``LinearSystem.rows`` as stored whose
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


def _eliminate(sys: LinearSystem):
    """Forward elimination with deterministic pivoting.

    Returns (pivots, rows) where pivots maps column -> row position, in
    column order, and rows is an echelon copy of ``sys.rows``: a pivot row
    holds its pivot column and later columns only, and it is never changed
    once chosen; every other row ends empty (0 = rhs).  ``holders[j]`` is
    the set of rows with a nonzero entry in column j, kept exact under
    every row operation, so the pivot search and the elimination visit
    only those rows.
    """
    rows = list(sys.rows)
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
        candidates.discard(pivot)
        pivots[col] = pivot
        pivot_rows.add(pivot)
        prow, prhs = rows[pivot]
        p = prow[col]
        for r in candidates:
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
    rows: list[tuple[dict[int, int], int]] = [({}, 0) for _ in sys.variables]
    for r, (row, _) in enumerate(sys.rows):
        for j, v in row.items():
            rows[j][0][r] = v
    rows.append(({r: rhs for r, (_, rhs) in enumerate(sys.rows) if rhs}, 1))
    dual = solve(LinearSystem(tuple(str(r) for r in range(len(sys.rows))), rows))
    if isinstance(dual, Inconsistent):
        raise CheckError("the system and its dual are both inconsistent")
    y = dual.assignment if isinstance(dual, Unique) else dual.particular
    return {int(name): v for name, v in y.items() if v}


def solve(sys: LinearSystem) -> SolveResult:
    """Solve exactly, classifying the system.

    The result is ``Unique``, ``Underdetermined`` (particular solution with
    the free variables pinned to 0) or ``Inconsistent`` (with a certificate
    combination of the stored rows reducing to 0 = 1).
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
    # Back-substitute in reverse pivot order with the free variables at 0:
    # a pivot row holds its column, still 0 here, and later columns, all
    # solved by then.  Value j is nums[j] / den; den grows only when a pivot
    # does not divide its row's sum.
    nums = [0] * len(sys.variables)
    den = 1
    for col, r in reversed(pivots.items()):
        row, rhs = rows[r]
        acc = rhs * den
        for j, v in row.items():
            acc -= v * nums[j]
        p = row[col]
        step = abs(p) // gcd(acc, p)
        if step > 1:
            den *= step
            nums = [x * step for x in nums]
            acc *= step
        nums[col] = acc // p
    assignment = {name: Fraction(x, den) for name, x in zip(sys.variables, nums)}
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


def residual(sys: LinearSystem, assignment: Mapping[str, Rational]) -> list[Fraction]:
    """Exact ``lhs(assignment) - rhs`` per row, summed in integers over one denominator."""
    values = [assignment[name] for name in sys.variables]
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    zero = Fraction(0)
    out = []
    for row, rhs in sys.rows:
        acc = -rhs * den
        for j, v in row.items():
            acc += v * nums[j]
        out.append(Fraction(acc, den) if acc else zero)
    return out
