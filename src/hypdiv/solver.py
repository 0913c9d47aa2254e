"""Assemble and exactly solve the coefficient system for a target divisor.

For a fixed genus and target, every cataloged family contributes one
linear relation: pairing the unknown coefficients (named by
:func:`hypdiv.families.unknown`) with the family's degree vector and
equating to the target degree.  The assembly is
deliberately overdetermined; redundant relations are reported, never
pruned, since they cross-check the catalog.

Two kinds of relation enter beyond the families themselves:

* identification relations: at the top boundary index two formal labels
  name the same irreducible divisor, and the printed closed forms give
  both labels one common value.  The symmetric constraint (e.g.
  ``b_t_0 = b_t_1`` for odd g) is forced; without it the formal
  coefficient of the label that no family reaches would be free.
* the boundary member i = 0 of the f2ip1 pencil (target g12 only).  It
  pins the auxiliary ``b_0_1``; for g >= 3 it is implied by the other
  relations, while at g = 2 it is what makes delta_{1,1} computable.

Unknowns carried on out-of-range labels (``b_0_0``, ``b_0_1``, and for
even g ``b_{g/2}_1`` / ``b_{g/2}_2``) are auxiliaries: first-class solver
variables, solved, reported, and excluded from the resulting divisor
expression.

A :class:`Relation` is a small ``__slots__`` class, since building one
drops zero coefficients and rejects an empty relation; the solve's
:class:`CoefficientReport` is a ``NamedTuple``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import families as F
from . import basis as B
from .basis import DivisorExpression, DomainError
from .families import G12


class SolverError(RuntimeError):
    """The assembled system is inconsistent or underdetermined.

    For an inconsistent system ``certificate`` maps relation indices to
    their multipliers and ``inconsistent`` lists those relations'
    provenances in order; otherwise they are None and empty.
    """

    def __init__(self, message, certificate=None, inconsistent=()):
        super().__init__(message)
        self.certificate = certificate
        self.inconsistent = list(inconsistent)


class Relation:
    """One linear equation on the unknown coefficients, with integer entries.

    Zero coefficients are dropped; a relation left with none is a DomainError.
    """

    __slots__ = ("coeffs", "rhs", "provenance")

    def __init__(self, coeffs: dict[str, int], rhs: int, provenance: str):
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        if not self.coeffs:
            raise DomainError(f"relation {provenance!r} has no nonzero coefficient")
        self.rhs = rhs
        self.provenance = provenance

    def __eq__(self, other):
        if type(other) is not Relation:
            return NotImplemented
        return (self.coeffs, self.rhs, self.provenance) == (
            other.coeffs,
            other.rhs,
            other.provenance,
        )

    def __repr__(self):
        return f"Relation(coeffs={self.coeffs!r}, rhs={self.rhs!r}, provenance={self.provenance!r})"

    def render(self) -> str:
        parts = []
        for symbol, value in self.coeffs.items():
            if not parts:
                parts.append(f"{value}·{symbol}")
            elif value < 0:
                parts.append(f"- {-value}·{symbol}")
            else:
                parts.append(f"+ {value}·{symbol}")
        return f"{self.provenance}: {' '.join(parts)} = {self.rhs}"


def family_vectors(g: int, target: str) -> list[F.DegreeVector]:
    """Every cataloged degree vector entering the (g, target) system."""
    n = F.marked_points(target)
    if n == 1:
        vectors = [F.diagonal_family(g)]
    else:
        vectors = [
            F.two_point_blowup_family(g, F.SINGLE),
            F.two_point_blowup_family(g, F.WEIERSTRASS_INVOLUTION),
        ]
    vectors.append(F.quadric_pencil_family(g, n))
    for i in range(1, g // 2 + 1):
        for section in (F.HORIZONTAL, F.DIAGONAL):
            for side in (F.LOW, F.HIGH):
                vectors.append(F.glued_weierstrass_family(g, i, section, side, n))
    if n == 2:
        for i in range(1, g // 2 + 1):
            vectors.append(F.g12_ruling_family(g, i, F.LOW))
            vectors.append(F.g12_ruling_family(g, i, F.HIGH))
        for i in range(0, (g - 1) // 2 + 1):
            vectors.append(F.f2ip1_family(g, i))
    return vectors


def identification_relations(g: int, target: str) -> list[Relation]:
    """Symmetric constraints for formal label pairs naming one divisor."""
    out = []
    for twin, canonical in B.identified_pairs(g, F.marked_points(target)):
        s1, s2 = F.unknown(twin), F.unknown(canonical)
        if s1 == s2:
            continue
        out.append(
            Relation(
                coeffs={s2: -1, s1: 1},
                rhs=0,
                provenance=f"identification[{s1}={s2}]",
            )
        )
    return out


def assemble_system(g: int, target: str) -> list[Relation]:
    """All relations for (g, target), in deterministic order.

    Every relation lists its unknowns in the solver order of
    :func:`hypdiv.families.pairing_degree`.
    """
    relations = [
        Relation(F.pairing_degree(dv), dv.target_degree, dv.provenance())
        for dv in family_vectors(g, target)
    ]
    return relations + identification_relations(g, target)


def unknown_order(g: int, target: str, relations: list[Relation]) -> tuple[list[str], list[str]]:
    """(formal unknowns, auxiliary unknowns of ``relations``), both in solver order."""
    formal = list(F.formal_unknowns(g, F.marked_points(target)))
    known = set(formal)
    auxiliaries = []
    for relation in relations:
        for symbol in relation.coeffs:
            if symbol not in known:
                known.add(symbol)
                auxiliaries.append(symbol)
    return formal, auxiliaries


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
    variables = formal + auxiliaries
    system = exactlin.LinearSystem(tuple(variables))
    for relation in relations:
        system.add_row(relation.coeffs, relation.rhs)

    result = exactlin.solve(system)
    if isinstance(result, exactlin.Inconsistent):
        from fractions import Fraction  # not at the top: ``hypdiv relations`` builds no rational

        # the multipliers act on the stored primitive rows; rescale to the relations
        certificate = {}
        for r, y in sorted(result.certificate.items()):
            j, v = next(iter(system.rows[r][0].items()))
            certificate[r] = y * Fraction(v, relations[r].coeffs[variables[j]])
        inconsistent = [relations[r].provenance for r in certificate]
        raise SolverError(
            f"inconsistent system for g={g}, target={target}; "
            f"certificate combines rows {inconsistent} into 0 = {result.residual}",
            certificate=certificate,
            inconsistent=inconsistent,
        )
    if isinstance(result, exactlin.Underdetermined):
        raise SolverError(
            f"underdetermined system for g={g}, target={target}: "
            f"free unknowns {list(result.free)}"
        )

    assignment = result.assignment
    return CoefficientReport(
        g=g,
        target=target,
        coefficients={s: assignment[s] for s in formal},
        auxiliaries={s: assignment[s] for s in auxiliaries},
        rank=result.rank,
        n_unknowns=len(variables),
        redundant=[relations[r].provenance for r in result.redundant_rows],
        relations=relations,
    )


def independent_a1_determinations(g: int) -> dict[int, dict[str, Fraction]]:
    """Determinations of each invariant delta coefficient a_i_1 (target g12).

    For every i, the ruling relation on each side determines a_i_1 once
    the eta unknown it touches is pinned by an f2ip1 relation (a disjoint
    family).  Returns i -> {side: value} for the sides whose eta unknown
    has an f2ip1 source; every i has at least one.
    """
    from fractions import Fraction

    report = solve_coefficients(g, G12)
    pinned = {"c": report.coefficients["c"], "d": report.coefficients["d"]}

    def solve_for(dv: F.DegreeVector, name: str, values: dict[str, Fraction]) -> Fraction:
        # the one unknown of dv's relation that ``values`` leaves open
        form = F.pairing_degree(dv)
        rest = sum((coeff * values[s] for s, coeff in form.items() if s != name), Fraction(0))
        return (dv.target_degree - rest) / form[name]

    out: dict[int, dict[str, Fraction]] = {}
    for i in B.delta_range(g):
        determinations: dict[str, Fraction] = {}
        for side, eta_index in ((F.LOW, i - 1), (F.HIGH, i)):
            if not 0 <= eta_index <= (g - 1) // 2:
                continue  # no f2ip1 member pins this eta unknown
            b = F.unknown(B.eta(eta_index, "1"))
            values = {**pinned, b: solve_for(F.f2ip1_family(g, eta_index), b, pinned)}
            ruling = F.g12_ruling_family(g, i, side)
            determinations[side] = solve_for(ruling, F.unknown(B.delta(i, "1")), values)
        out[i] = determinations
    return out
