"""Closed-form coefficient tables for the two target divisor classes.

Both classes have every coefficient given by an explicit rational
function of the genus; these are evaluated exactly and serve as the
oracle the test-family solver is verified against.

Both classes share the common denominator (g-1)(2g+1); the
degree-2-series class (two marked points) has an extra delta_{0,2} term.
The delta_{i,1} coefficient of the two-pointed class is implemented with
this denominator; the solver confirms this normalization exactly (see
the g=3 pins in the acceptance suite), which settles the alternative
(g-1)(2g+2) reading.

A verification is reported as ``NamedTuple`` records: one
:class:`GenusResult` per genus inside a :class:`VerificationReport`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from . import basis as B
from . import families as F
from . import solver
from .basis import DivisorExpression
from .families import G12, WEIERSTRASS


def _genus(g: int) -> int:
    """``g`` itself; a DomainError unless it is an ``int`` >= 2."""
    if type(g) is not int or g < 2:
        raise B.DomainError(f"genus must be an int >= 2, got {g!r}")
    return g


def _den(g: int) -> int:
    return (g - 1) * (2 * g + 1)


def _indexed(g: int, i: int, m: int, first: int, slots: int) -> int:
    """``g`` itself; a DomainError unless ``i`` is an ``int`` in first..g//2
    and ``m`` an ``int`` slot below ``slots``."""
    g = _genus(g)
    if type(i) is not int or type(m) is not int or not (first <= i <= g // 2 and 0 <= m < slots):
        raise B.DomainError(f"no coefficient at index {i!r}, slot {m!r} for genus {g}")
    return g


def w_psi(g: int) -> Fraction:
    g = _genus(g)
    return Fraction(g + 1, g - 1)


def w_eta_irr(g: int) -> Fraction:
    return Fraction(-1, 2 * _den(_genus(g)))


def w_delta(g: int, i: int, m: int) -> Fraction:
    g = _indexed(g, i, m, 1, 2)
    j = g - i if m else i  # the far side is the near side at index g - i
    return Fraction(-2 * j * (2 * j + 1), _den(g))


def w_eta(g: int, i: int, m: int) -> Fraction:
    # from index 0 on: the solver's auxiliaries b_0_m extend the table
    g = _indexed(g, i, m, 0, 2)
    j = g - 1 - i if m else i  # the far side is the near side at index g - 1 - i
    return Fraction(-(j + 1) * (2 * j + 1), _den(g))


def g12_psi(g: int) -> Fraction:
    return Fraction(1, _genus(g) - 1)


g12_eta_irr = w_eta_irr


def g12_delta_0_2(g: int) -> Fraction:
    g = _genus(g)
    return Fraction(-(g + 1), g - 1)


def g12_delta(g: int, i: int, m: int) -> Fraction:
    g = _indexed(g, i, m, 1, 3)
    if m == 1:
        return Fraction((2 * i - 1) * (2 * (g - i) - 1) - 2, _den(g))
    return w_delta(g, i, m // 2)


def g12_eta(g: int, i: int, m: int) -> Fraction:
    g = _indexed(g, i, m, 0, 3)
    if m == 1:
        return Fraction(2 * i * (g - i - 1) - 1, _den(g))
    return w_eta(g, i, m // 2)


_FORMULAS = {
    WEIERSTRASS: {B.PSI: w_psi, B.ETA_IRR: w_eta_irr, B.DELTA: w_delta, B.ETA: w_eta},
    G12: {
        B.PSI: g12_psi,
        B.ETA_IRR: g12_eta_irr,
        B.DELTA_0_2: g12_delta_0_2,
        B.DELTA: g12_delta,
        B.ETA: g12_eta,
    },
}


def closed_form_values(g: int, target: str) -> dict[str, Fraction]:
    """The closed-form value of every formal unknown, keyed by unknown name.

    One pass over the formal labels; the first label of each unknown gives
    its value, as every label of an unknown shares (kind, index, slot).
    """
    formulas = _FORMULAS[target]
    values = {}
    for e in B.formal_elements(g, F.marked_points(target)):
        u = F.unknown(e)
        if u not in values:
            indexed = (e.index, F.slot(e.marking)) if e.kind in (B.DELTA, B.ETA) else ()
            values[u] = formulas[e.kind](g, *indexed)
    return values


def closed_form(g: int, target: str) -> DivisorExpression:
    """The target divisor class, formal view.

    For two marked points the invariant coefficient of delta_{i,1} lands
    on both delta_{i,1a} and delta_{i,1b} (likewise for eta).
    """
    return F.formal_expression(g, F.marked_points(target), closed_form_values(g, target))


class GenusResult(NamedTuple):
    """One genus of a verification.

    When the solver refuses the system, ``error`` holds its message,
    ``inconsistent`` the provenances of the certificate's relations (empty
    for an underdetermined system), and the solve counts are None.
    """

    g: int
    ok: bool
    mismatches: list[tuple[str, Fraction | None, Fraction | None]]
    rank: int | None
    n_unknowns: int | None
    n_redundant: int | None
    auxiliaries: dict[str, Fraction]
    error: str | None = None
    inconsistent: Sequence[str] = ()


class VerificationReport(NamedTuple):
    target: str
    g_min: int
    g_max: int
    results: Sequence[GenusResult] = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        checked = len(self.results)
        failed = [r.g for r in self.results if not r.ok]
        if not failed:
            return f"{self.target}: {checked} genera checked, all match"
        return f"{self.target}: {checked} genera checked, mismatches at g in {failed}"


def verify_range(g_min: int, g_max: int, target: str) -> VerificationReport:
    """Compare solver output against the closed form, unknown by unknown.

    Mismatches are collected into the report (with both values), never
    raised: a failure report is a result, not an exception.  A genus whose
    system the solver refuses (inconsistent or underdetermined) is
    reported as not ok, naming the relations of the certificate.
    """
    if type(g_min) is not int or type(g_max) is not int:
        raise B.DomainError(f"genus bounds must be int, got {g_min!r}..{g_max!r}")
    if not 2 <= g_min <= g_max:
        raise B.DomainError(f"invalid genus range {g_min}..{g_max}")
    results = []
    n = F.marked_points(target)
    for g in range(g_min, g_max + 1):
        try:
            solved = solver.solve_coefficients(g, target)
        except solver.SolverError as exc:
            results.append(
                GenusResult(
                    g=g,
                    ok=False,
                    mismatches=[],
                    rank=None,
                    n_unknowns=None,
                    n_redundant=None,
                    auxiliaries={},
                    error=str(exc),
                    inconsistent=exc.inconsistent,
                )
            )
            continue
        got, want = solved.coefficients, closed_form_values(g, target)
        mismatches = []
        if got != want:
            # name each differing formal label in order; a zero value reads None
            for e in B.formal_elements(g, n):
                u = F.unknown(e)
                if got[u] != want[u]:
                    mismatches.append((e.name(n), got[u] or None, want[u] or None))
        results.append(
            GenusResult(
                g=g,
                ok=not mismatches,
                mismatches=mismatches,
                rank=solved.rank,
                n_unknowns=solved.n_unknowns,
                n_redundant=len(solved.redundant),
                auxiliaries=solved.auxiliaries,
            )
        )
    return VerificationReport(target, g_min, g_max, results)
