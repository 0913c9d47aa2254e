"""Exact linear algebra over Q.

A row maps variable names (any hashables; ``LinearSystem.variables`` is
the column order) to nonzero ``int``s, with an ``int`` right-hand side.
The constructor copies its list of rows, never the rows: they are shared
and checked by ``solve`` and ``rank``, which refuse a malformed one.  A row
appended later takes ``int`` or ``fractions.Fraction`` entries (never a
``bool``) and is stored primitive.  Only answers are ``Fraction``s.
``solve`` runs integer-preserving forward elimination on a copy of the
rows, then back-substitution in integers over one common denominator, so
no rounding can occur.  Elimination takes the rows in order and reduces
each at its leading column only, by the earlier row that pivots it, so the
cost follows the fill-in, and a caller that puts the columns most rows
share last keeps them out of most row operations.  The certificate for an
inconsistent A·x = b solves the dual y·A = 0, y·b = 1 through ``solve``
itself (Fredholm alternative), the row indices being its variables; it
multiplies ``LinearSystem.rows`` as stored.  Every answer is substituted
into every stored row, in those integers, before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Hashable, Iterable, Mapping, NamedTuple


class StructuralError(ValueError):
    """A row does not match the system's variable list, or holds an entry of the wrong type."""


class CheckError(ArithmeticError):
    """A computed answer does not satisfy the rows it was computed from."""


class LinearSystem:
    """Exact linear equations over named variables, as integer rows keyed by name."""

    def __init__(self, variables, rows: Iterable[tuple[dict[Hashable, int], int]] = ()):
        self.variables: tuple[Hashable, ...] = tuple(variables)
        self.rows = list(rows)
        if len(set(self.variables)) != len(self.variables):
            raise StructuralError("duplicate variable names")

    def add_row(self, coeffs: Mapping[Hashable, Rational], rhs: Rational = 0) -> None:
        """Append ``sum(coeffs[v] * v) = rhs``, scaled to a primitive integer row."""
        if not isinstance(coeffs, Mapping):
            raise TypeError(f"row coefficients {coeffs!r} are not a mapping")
        # a bool is an int subclass, so it is refused by type, not by the ABC
        if any(type(v) is bool or not isinstance(v, Rational) for v in (rhs, *coeffs.values())):
            raise StructuralError(f"row {dict(coeffs)!r} = {rhs!r}: a bool or non-rational entry")
        for name in coeffs:
            if name not in self.variables:
                raise StructuralError(f"unknown variable {name!r}")
        scale = lcm(rhs.denominator, *(v.denominator for v in coeffs.values()))
        row = {name: v.numerator * (scale // v.denominator) for name, v in coeffs.items() if v}
        self.rows.append(_normalize(row, rhs.numerator * (scale // rhs.denominator)))


class Unique(NamedTuple):
    """Every variable is determined; ``assignment`` satisfies all rows."""

    assignment: dict[Hashable, Fraction]
    rank: int
    redundant_rows: tuple[int, ...]


class Underdetermined(NamedTuple):
    """Consistent but with free variables (set to 0 in ``particular``)."""

    particular: dict[Hashable, Fraction]
    free: tuple[Hashable, ...]
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


SolveResult = Unique | Underdetermined | Inconsistent


def _normalize(row: dict, rhs: int) -> tuple[dict, int]:
    """Divide an integer row and its right-hand side by their content."""
    content = gcd(rhs, *row.values())
    if content > 1:
        row = {j: v // content for j, v in row.items()}
        rhs //= content
    return row, rhs


def _eliminate(sys: LinearSystem):
    """Forward elimination with deterministic pivoting, one stored row at a time.

    Returns (pivots, rows): pivots maps column -> row position in column
    order, and rows is an echelon copy of ``sys.rows``.  Each row in turn is
    reduced at its leading column (its first in column order) by that
    column's pivot, an earlier row, until it pivots a column itself or ends
    empty (0 = rhs); a pivot row holds its pivot column and later columns
    only, and never changes.  Each stored row is checked as it comes up:
    StructuralError on a malformed one; TypeError on anything but a LinearSystem.
    """
    if not isinstance(sys, LinearSystem):
        raise TypeError(f"{sys!r} is not a LinearSystem")
    position = {v: k for k, v in enumerate(sys.variables)}
    pivots: dict[Hashable, int] = {}
    rows = []
    for r, stored in enumerate(sys.rows):
        if not (isinstance(stored, tuple) and len(stored) == 2 and isinstance(stored[0], dict)):
            raise StructuralError(f"stored row {r}: {stored!r} is not a (dict, int) pair")
        row, rhs = stored
        for j, v in row.items():
            if type(v) is not int or not v or j not in position:
                raise StructuralError(
                    f"stored row {r}: {j!r}: {v!r} is not a nonzero int on a variable"
                )
        if type(rhs) is not int:
            raise StructuralError(f"stored row {r}: right-hand side {rhs!r} is not an int")
        while row:
            col = sys.variables[min(map(position.__getitem__, row))]
            if col not in pivots:
                pivots[col] = r
                break
            prow, prhs = rows[pivots[col]]
            p, q = prow[col], row[col]
            new_row = {j: p * v for j, v in row.items()}
            for j, v in prow.items():
                acc = new_row.get(j, 0) - q * v
                if acc:
                    new_row[j] = acc
                else:
                    del new_row[j]
            row, rhs = _normalize(new_row, p * rhs - q * prhs)
        rows.append((row, rhs))
    return {col: pivots[col] for col in sys.variables if col in pivots}, rows


def _certificate(sys: LinearSystem) -> dict[int, Fraction]:
    """Nonzero multipliers y_r on the rows of ``sys`` with y·A = 0, y·b = 1."""
    columns: dict[Hashable, dict[int, int]] = {v: {} for v in sys.variables}
    for r, (row, _) in enumerate(sys.rows):
        for j, v in row.items():
            columns[j][r] = v
    rows = [(column, 0) for column in columns.values()]
    rows.append(({r: rhs for r, (_, rhs) in enumerate(sys.rows) if rhs}, 1))
    dual = solve(LinearSystem(range(len(sys.rows)), rows))
    if isinstance(dual, Inconsistent):
        raise CheckError("the system and its dual are both inconsistent")
    y = dual.assignment if isinstance(dual, Unique) else dual.particular
    return {r: v for r, v in y.items() if v}


def solve(sys: LinearSystem) -> SolveResult:
    """Solve exactly, classifying the system.

    The result is ``Unique``, ``Underdetermined`` (particular solution with
    the free variables pinned to 0) or ``Inconsistent`` (with a certificate
    combination of the stored rows reducing to 0 = 1).
    """
    pivots, rows = _eliminate(sys)
    rank = len(pivots)
    redundant = [r for r, (row, _) in enumerate(rows) if not row]  # each now reads 0 = rhs
    if any(rows[r][1] for r in redundant):
        return Inconsistent(certificate=_certificate(sys), residual=Fraction(1), rank=rank)
    nums, den = _back_substitute(pivots, rows, sys.variables)
    # every stored row is checked on the integers at hand; Fractions only for the answer
    excess = (sum([v * nums[j] for j, v in row.items()]) - rhs * den for row, rhs in sys.rows)
    failed = [r for r, e in enumerate(excess) if e]
    if failed:
        raise CheckError(f"the computed answer fails rows {failed[:10]}")
    assignment = {name: Fraction(x, den) for name, x in nums.items()}
    free = tuple(name for name in sys.variables if name not in pivots)
    if free:
        return Underdetermined(assignment, free, rank, redundant_rows=tuple(redundant))
    return Unique(assignment=assignment, rank=rank, redundant_rows=tuple(redundant))


def _back_substitute(pivots: dict, rows, variables) -> tuple[dict, int]:
    """(nums, den), value of variable v being nums[v] / den with the free variables at 0.

    In reverse pivot order a pivot row's later columns are all solved; den
    grows only when a pivot does not divide its row's sum.
    """
    nums = dict.fromkeys(variables, 0)
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
            nums = {j: x * step for j, x in nums.items()}
            acc *= step
        nums[col] = acc // p
    return nums, den


def rank(sys: LinearSystem) -> int:
    """Rank of the coefficient matrix (right-hand sides ignored)."""
    return len(_eliminate(sys)[0])
