"""Closed-form coefficient tables for the two target divisor classes: the
oracle the test-family solver is verified against.

Every coefficient is an explicit rational function of the genus.
:data:`_NUMERATORS` is their one table, as integer numerators over the one
denominator 2(g-1)(2g+1): both classes share (g-1)(2g+1), and eta_irr alone
needs the factor 2, its numerator being -1.  It is read two ways:
:func:`closed_form_numerators` (and so :func:`closed_form_values`) reads every
formal unknown, globals included, and :func:`w_delta`, :func:`w_eta`,
:func:`g12_delta` and :func:`g12_eta` each read one boundary coefficient at
(g, i, m), the auxiliary eta indices included.  The degree-2-series class (two
marked points) has an extra delta_{0,2} term; the solver confirms its
delta_{i,1} normalization exactly (see the g=3 pins in the acceptance suite),
which settles the alternative (g-1)(2g+2) reading.

:func:`verify_range` decides each genus with one predicate, run on the formal unknowns and,
apart, on the auxiliaries (b_0_m, m < n, and for even g b_{g/2}_m, m >= 1, off the eta row):
an unknown mismatches when it is on one side only or when the solver's value and the
numerator over the shared denominator fail a cross-multiplied comparison in integers.
Only a mismatch builds ``Fraction`` s, to report it.  The report is data that ``cli`` writes:
``NamedTuple`` records, one :class:`GenusResult` per genus in a :class:`VerificationReport`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from . import basis as B
from . import families as F
from .basis import DivisorExpression
from .families import G12, WEIERSTRASS


def _den(g: int) -> int:
    return 2 * (g - 1) * (2 * g + 1)


def _w_delta(g: int, i: int, m: int) -> int:
    j = g - i if m else i  # the far side is the near side at index g - i
    return -4 * j * (2 * j + 1)


def _w_eta(g: int, i: int, m: int) -> int:
    j = g - 1 - i if m else i  # the far side is the near side at index g - 1 - i
    return -2 * (j + 1) * (2 * j + 1)


# target -> kind -> numerator over _den(g) of its coefficient at g, or at (g, i, m)
# for a boundary kind; the g12 slots 0 and 2 are the Weierstrass slots 0 and 1
_NUMERATORS = {
    WEIERSTRASS: {
        B.PSI: lambda g: 2 * (g + 1) * (2 * g + 1),
        B.ETA_IRR: lambda g: -1,
        B.DELTA: _w_delta,
        B.ETA: _w_eta,
    },
    G12: {
        B.PSI: lambda g: 2 * (2 * g + 1),
        B.ETA_IRR: lambda g: -1,
        B.DELTA_0_2: lambda g: -2 * (g + 1) * (2 * g + 1),
        B.DELTA: lambda g, i, m: (
            2 * (2 * i - 1) * (2 * (g - i) - 1) - 4 if m == 1 else _w_delta(g, i, m // 2)
        ),
        B.ETA: lambda g, i, m: 4 * i * (g - i - 1) - 2 if m == 1 else _w_eta(g, i, m // 2),
    },
}


def _value(target: str, kind: str, g: int, i: int, m: int) -> Fraction:
    """The coefficient of the boundary ``kind`` at genus g, index i and slot m; a DomainError
    unless (g, n) passes ``check_ambient`` and i, m are ``int`` s in the table: i in 1..g//2
    (eta from 0: the auxiliaries b_0_m), m in 0..n.  :func:`closed_form_values` gives the rest."""
    n = F.marked_points(target)
    B.check_ambient(g, n)
    if not (type(i) is type(m) is int and (kind == B.DELTA) <= i <= g // 2 and 0 <= m <= n):
        raise B.DomainError(f"no coefficient at index {i!r}, slot {m!r} for genus {g}")
    return Fraction(_NUMERATORS[target][kind](g, i, m), _den(g))


def w_delta(g: int, i: int, m: int) -> Fraction:
    return _value(WEIERSTRASS, B.DELTA, g, i, m)


def w_eta(g: int, i: int, m: int) -> Fraction:
    return _value(WEIERSTRASS, B.ETA, g, i, m)


def g12_delta(g: int, i: int, m: int) -> Fraction:
    return _value(G12, B.DELTA, g, i, m)


def g12_eta(g: int, i: int, m: int) -> Fraction:
    return _value(G12, B.ETA, g, i, m)


def closed_form_numerators(g: int, target: str) -> dict[str, int]:
    """Every formal unknown's numerator over 2(g-1)(2g+1), keyed by unknown name
    in solver order: the global unknowns, then each boundary kind by (index, slot)."""
    n = F.marked_points(target)
    B.check_ambient(g, n)
    table, slots = _NUMERATORS[target], [(m, str(m)) for m in range(n + 1)]  # m, as a slot
    nums = {F.unknown(e): table[e.kind](g) for e in B.GLOBALS[n]}
    for kind, indices in ((B.DELTA, B.delta_range(g)), (B.ETA, B.eta_range(g))):
        f = table[kind]
        nums.update((F.boundary_unknown(kind, i, s), f(g, i, m)) for i in indices for m, s in slots)
    return nums


def closed_form_values(g: int, target: str) -> dict[str, Fraction]:
    """The closed-form value of every formal unknown, keyed by unknown name."""
    nums, den = closed_form_numerators(g, target), _den(g)  # g checked before _den reads it
    return {u: Fraction(num, den) for u, num in nums.items()}


def closed_form(g: int, target: str) -> DivisorExpression:
    """The target divisor class, formal view: for two marked points the invariant
    coefficient of delta_{i,1} lands on both delta_{i,1a} and delta_{i,1b} (likewise for eta)."""
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


def _mismatches(g: int, n: int, got: dict, nums: dict, formal: bool = True) -> list:
    """(class, solver value, closed-form value) of each formal label whose unknown differs, in
    order, then (unknown, ...) of each other differing unknown (each one unless ``formal``), by
    name; a zero or missing value reads None.  Only a mismatch walks labels and builds Fractions."""
    den = _den(g)
    bad = {u for u, v in got.items() if u in nums and v.numerator * den != nums[u] * v.denominator}
    bad |= got.keys() ^ nums.keys()  # an unknown on one side only
    if not bad:
        return []
    rows = [(e.name(n), F.unknown(e)) for e in B.formal_elements(g, n)] if formal else []
    rows += [(u, u) for u in sorted(bad.difference(u for _, u in rows))]  # named by no label
    closed = lambda u: Fraction(nums[u], den) if nums.get(u) else None
    return [(s, got.get(u) or None, closed(u)) for s, u in rows if u in bad]


def verify_range(g_min: int, g_max: int, target: str) -> VerificationReport:
    """Compare solver output against the closed form, unknown by unknown, auxiliaries included.

    Mismatches are collected into the report (with both values), never
    raised: a failure report is a result, not an exception.  A genus whose
    system the solver refuses (inconsistent or underdetermined) is
    reported as not ok, naming the relations of the certificate.
    """
    if type(g_min) is not int or type(g_max) is not int:
        raise B.DomainError(f"genus bounds must be int, got {g_min!r}..{g_max!r}")
    if not 2 <= g_min <= g_max:
        raise B.DomainError(f"invalid genus range {g_min}..{g_max}")
    from . import solver  # here, not at the top: the closed forms alone never solve

    results = []
    n = F.marked_points(target)
    for g in range(g_min, g_max + 1):
        try:
            solved = solver.solve_coefficients(g, target)
        except solver.SolverError as exc:  # no mismatches, solve counts or auxiliaries
            failure = str(exc), exc.inconsistent
            results.append(GenusResult(g, False, [], None, None, None, {}, *failure))
            continue
        eta = _NUMERATORS[target][B.ETA]
        spots = [(0, m) for m in range(n)] + [(g // 2, m) for m in range(1, n + 1)] * (g % 2 == 0)
        aux = {F.boundary_unknown(B.ETA, i, str(m)): eta(g, i, m) for i, m in spots}
        mismatches = _mismatches(g, n, solved.coefficients, closed_form_numerators(g, target))
        mismatches += _mismatches(g, n, solved.auxiliaries, aux, formal=False)
        counts = solved.rank, solved.n_unknowns, len(solved.redundant)
        results.append(GenusResult(g, not mismatches, mismatches, *counts, solved.auxiliaries))
    return VerificationReport(target, g_min, g_max, results)
