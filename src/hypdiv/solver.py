"""Assemble and exactly solve the coefficient system for a target divisor.

For a fixed genus and target, every cataloged family member contributes
one linear relation (:func:`hypdiv.families.relations`): the unknowns
(named by :func:`hypdiv.families.unknown`) paired with the member's degrees
equal the target degree.  It is read off the one walk over the catalog that
:func:`family_vectors` reads as degree vectors; the assembly builds none.
The assembly is deliberately overdetermined; redundant relations are
reported, never pruned, since they cross-check the catalog.  The independent
a_i_1 determinations re-solve pairs of those same relations, found by their
provenance.

Beyond the families, identification relations enter: at the top boundary
index two formal labels name the same irreducible divisor, and the printed
closed forms give both one common value, so ``b_t_0 = b_t_1`` (odd g) and
its like are forced.  The f2ip1 member i = 0 (target g12) pins the
auxiliary ``b_0_1``; at g = 2 it is what makes delta_{1,1} computable.
Unknowns on out-of-range labels (``b_0_0``, ``b_0_1``, and for even g
``b_{g/2}_1`` / ``b_{g/2}_2``) are auxiliaries: solved and reported, but
excluded from the resulting divisor expression.

The linear system takes its columns as the boundary formal unknowns, then
the auxiliaries, then the first n + 1 formal unknowns, d, c (and a_0_2):
almost every family meets these global classes, and elimination clears a
pivot's column only from rows not yet pivots, so put last they enter few
row operations.  The report, relations and ``unknown_order`` keep solver order.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from . import families as F
from . import basis as B
from .basis import DivisorExpression
from .families import G12, Relation, family_vectors


class SolverError(RuntimeError):
    """The assembled system is inconsistent or underdetermined.

    For an inconsistent system ``certificate`` maps relation indices to their
    multipliers and ``inconsistent`` lists their provenances; else None and empty.
    """

    def __init__(self, message, certificate=None, inconsistent=()):
        super().__init__(message)
        self.certificate = certificate
        self.inconsistent = list(inconsistent)


def identification_relations(g: int, target: str) -> list[Relation]:
    """Symmetric constraints for formal label pairs naming one divisor."""
    out = []
    for twin, canonical in B.identified_pairs(g, F.marked_points(target)):
        s1, s2 = F.unknown(twin), F.unknown(canonical)
        if s1 != s2:
            out.append(Relation({s2: -1, s1: 1}, 0, f"identification[{s1}={s2}]"))
    return out


def assemble_system(g: int, target: str) -> list[Relation]:
    """All relations for (g, target), in deterministic order, each form in solver order."""
    n = F.marked_points(target)
    B.check_ambient(g, n)
    return F.relations(g, n) + identification_relations(g, target)


def unknown_order(g: int, target: str, relations: list[Relation]) -> tuple[list[str], list[str]]:
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
    relations: Sequence[Relation] = ()

    def __repr__(self):
        # the relations are left out: a large genus has thousands
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self))
        return f"CoefficientReport({shown})"

    @property
    def solution(self) -> DivisorExpression:
        """The formal-view expression giving every label its coefficient."""
        return F.formal_expression(self.g, F.marked_points(self.target), self.coefficients)


def solve_coefficients(g: int, target: str) -> CoefficientReport:
    """Solve the assembled system exactly and package the result.

    Raises SolverError if the system is inconsistent (with the combination
    certificate) or leaves any unknown free, auxiliary or not; either one
    signals a catalog bug, not a data condition.
    """
    from . import exactlin  # here, not at the top: ``hypdiv relations`` never solves

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
    from . import exactlin  # here, not at the top: ``hypdiv relations`` never solves

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
