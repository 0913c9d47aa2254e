"""Exactly solve the coefficient system that :mod:`hypdiv.families` assembles.

For a fixed genus and target, :func:`hypdiv.families.assemble_system` gives one linear
relation per cataloged family member, plus the identification relations; this module
imports it (the benchmark tracer hooks it here), ``family_vectors`` (the acceptance suite
reads it here) and ``G12`` under those names, and :mod:`hypdiv.exactlin` at the top, as
every process that loads this module solves.  The system is deliberately overdetermined;
redundant relations are reported, never pruned, since they cross-check the catalog.
Unknowns on out-of-range labels (``b_0_0``, ``b_0_1``, and for even g ``b_{g/2}_1`` /
``b_{g/2}_2``) are auxiliaries: solved and reported apart from the formal coefficients.

The linear system takes its columns as the boundary formal unknowns, then
the auxiliaries, then the first n + 1 formal unknowns, d, c (and a_0_2):
almost every family meets these global classes, and elimination reduces a
row at its leading column only, so put last they are reached only once a
row's boundary entries are cleared, and enter few row operations.  The
report, relations and ``unknown_order`` keep solver order.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from . import families as F
from . import basis as B
from . import exactlin
from .families import G12, assemble_system, family_vectors


class SolverError(RuntimeError):
    """The assembled system is inconsistent or underdetermined.

    For an inconsistent system ``certificate`` maps relation indices to their
    multipliers and ``inconsistent`` lists their provenances; else None and empty.
    """

    def __init__(self, message, certificate=None, inconsistent=()):
        super().__init__(message)
        self.certificate = certificate
        self.inconsistent = list(inconsistent)


def unknown_order(g: int, target: str, relations: list[F.Relation]) -> tuple[list[str], list[str]]:
    """(formal unknowns, auxiliary unknowns of ``relations``), both in solver order."""
    formal = F.formal_unknowns(g, F.marked_points(target))
    symbols = dict.fromkeys(chain(formal, *(relation.coeffs for relation in relations)))
    return formal, list(symbols)[len(formal):]  # the auxiliaries follow the formal names


class CoefficientReport(NamedTuple):
    """Solved coefficients plus the diagnostics the solve produced."""

    g: int
    target: str
    coefficients: dict[str, Fraction]
    auxiliaries: dict[str, Fraction]
    rank: int
    n_unknowns: int
    redundant: list[str]
    relations: Sequence[F.Relation] = ()

    def __repr__(self):
        # the relations are left out: a large genus has thousands
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self))
        return f"CoefficientReport({shown})"


def solve_coefficients(g: int, target: str) -> CoefficientReport:
    """Solve the assembled system exactly and package the result.

    Raises SolverError if the system is inconsistent (with the combination
    certificate) or leaves any unknown free, auxiliary or not; either one
    signals a catalog bug, not a data condition.
    """
    relations = assemble_system(g, target)
    formal, auxiliaries = unknown_order(g, target, relations)
    dense = F.marked_points(target) + 1  # d, c (and a_0_2) lead the formal order
    variables = formal[dense:] + auxiliaries + formal[:dense]
    # the relations are stored as they are, so the certificate multiplies them directly
    rows = [(r.coeffs, r.rhs) for r in relations]
    result = exactlin.solve(exactlin.LinearSystem(variables, rows))
    if isinstance(result, exactlin.Inconsistent):
        inconsistent = [relations[r].provenance for r in result.certificate]
        raise SolverError(
            f"inconsistent system for g={g}, target={target}; "
            f"certificate combines rows {inconsistent} into 0 = {result.residual}",
            certificate=result.certificate,
            inconsistent=inconsistent,
        )
    if isinstance(result, exactlin.Underdetermined):
        raise SolverError(
            f"underdetermined system for g={g}, target={target}: "
            f"free unknowns {list(result.free)}"
        )

    return CoefficientReport(
        g=g,
        target=target,
        coefficients={s: result.assignment[s] for s in formal},
        auxiliaries={s: result.assignment[s] for s in auxiliaries},
        rank=result.rank,
        n_unknowns=len(variables),
        redundant=[relations[r].provenance for r in result.redundant_rows],
        relations=relations,
    )


def independent_a1_determinations(g: int) -> dict[int, dict[str, Fraction]]:
    """Determinations of each invariant delta coefficient a_i_1 (target g12).

    For every i, ``exactlin`` solves the relation ``ruling_{side}[i=i]`` of the
    full solve with c and d fixed at their solved values and the eta unknown
    it touches pinned by ``f2ip1[i=k]`` (a disjoint family).  Returns
    i -> {side: value} for the sides with an f2ip1 member; every i has one.
    """
    report = solve_coefficients(g, G12)
    relation = {r.provenance: r for r in report.relations}.get
    fixed = [({s: 1}, report.coefficients[s]) for s in ("c", "d")]
    out: dict[int, dict[str, Fraction]] = {}
    for i in B.delta_range(g):
        a, out[i] = F.unknown(B.delta(i, "1")), {}
        for side, eta_index in ((F.LOW, i - 1), (F.HIGH, i)):
            pin, ruling = relation(f"f2ip1[i={eta_index}]"), relation(f"ruling_{side}[i={i}]")
            if pin is None:
                continue  # no f2ip1 member pins this side's eta unknown
            system = exactlin.LinearSystem(dict.fromkeys([a, *pin.coeffs, *ruling.coeffs]))
            for coeffs, rhs in [(pin.coeffs, pin.rhs), (ruling.coeffs, ruling.rhs), *fixed]:
                system.add_row(coeffs, rhs)
            result = exactlin.solve(system)
            if not isinstance(result, exactlin.Unique):
                raise SolverError(
                    f"{pin.provenance} and {ruling.provenance} do not determine {a} at g={g}"
                )
            out[i][side] = result.assignment[a]
    return out
