"""System assembly and exact solve: pins, redundancy honesty, determinations."""

import random
from fractions import Fraction
from math import gcd

import pytest

from hypdiv import basis as B
from hypdiv import closedform, exactlin
from hypdiv import families as F
from hypdiv.families import G12, WEIERSTRASS
from hypdiv.solver import (
    Relation,
    SolverError,
    assemble_system,
    family_vectors,
    identification_relations,
    independent_a1_determinations,
    solve_coefficients,
    unknown_order,
)


def frac(n, d=1):
    return Fraction(n, d)


def test_g2_weierstrass_assembly():
    relations = assemble_system(2, WEIERSTRASS)
    by_provenance = {r.provenance: r for r in relations}
    assert len(family_vectors(2, WEIERSTRASS)) == 6
    assert len(relations) == 7  # six families plus one identification
    assert by_provenance["diagonal"].coeffs == {"d": 2}
    assert by_provenance["diagonal"].rhs == 6
    assert by_provenance["quadric_pencil"].coeffs == {"d": 1, "c": 20}
    assert by_provenance["quadric_pencil"].rhs == 1
    formal, aux = unknown_order(2, WEIERSTRASS, relations)
    assert formal == ["d", "c", "a_1_0", "a_1_1"]
    assert aux == ["b_0_0", "b_1_1"]


def test_g3_weierstrass_assembly():
    relations = assemble_system(3, WEIERSTRASS)
    assert len(family_vectors(3, WEIERSTRASS)) == 6
    formal, aux = unknown_order(3, WEIERSTRASS, relations)
    assert formal == ["d", "c", "a_1_0", "a_1_1", "b_1_0", "b_1_1"]
    assert aux == ["b_0_0"]  # no auxiliaries beyond the eta_0 label
    # the identification is what reaches b_1_0 at odd genus
    ident = [r for r in relations if r.provenance.startswith("identification")]
    assert len(ident) == 1 and set(ident[0].coeffs) == {"b_1_0", "b_1_1"}


def test_g2_g12_assembly():
    relations = assemble_system(2, G12)
    provenances = [r.provenance for r in relations]
    assert provenances == [
        "two_point_single",
        "two_point_weierstrass",
        "quadric_pencil[marks=2]",
        "glued_horizontal_low[i=1]",
        "glued_horizontal_high[i=1]",
        "glued_diagonal_low[i=1]",
        "glued_diagonal_high[i=1]",
        "ruling_low[i=1]",
        "ruling_high[i=1]",
        "f2ip1[i=0]",
        "identification[a_1_2=a_1_0]",
    ]
    by_provenance = {r.provenance: r for r in relations}
    assert by_provenance["two_point_single"].coeffs == {"d": 4, "a_0_2": 1}
    assert by_provenance["two_point_single"].rhs == 1


def test_g2_weierstrass_solution_pinned():
    report = solve_coefficients(2, WEIERSTRASS)
    assert report.coefficients == {
        "d": frac(3),
        "c": frac(-1, 10),
        "a_1_0": frac(-6, 5),
        "a_1_1": frac(-6, 5),
    }
    assert report.auxiliaries == {"b_0_0": frac(-1, 5), "b_1_1": frac(-1, 5)}
    assert report.rank == report.n_unknowns == 6
    assert report.redundant == ["identification[a_1_1=a_1_0]"]


def test_g3_weierstrass_solution():
    report = solve_coefficients(3, WEIERSTRASS)
    assert report.coefficients == {
        "d": frac(2),
        "c": frac(-1, 28),
        "a_1_0": frac(-3, 7),
        "a_1_1": frac(-10, 7),
        "b_1_0": frac(-3, 7),
        "b_1_1": frac(-3, 7),
    }


def test_g2_g12_solution_pinned():
    report = solve_coefficients(2, G12)
    assert report.coefficients == {
        "d": frac(1),
        "c": frac(-1, 10),
        "a_0_2": frac(-3),
        "a_1_0": frac(-6, 5),
        "a_1_1": frac(-1, 5),
        "a_1_2": frac(-6, 5),
    }
    assert report.rank == report.n_unknowns == 10


def test_solutions_satisfy_every_relation_exactly():
    for g in (2, 3, 4, 5):
        for target in (WEIERSTRASS, G12):
            report = solve_coefficients(g, target)
            values = dict(report.coefficients)
            values.update(report.auxiliaries)
            for relation in report.relations:
                lhs = sum(
                    (coeff * values[s] for s, coeff in relation.coeffs.items()),
                    Fraction(0),
                )
                assert lhs == relation.rhs, relation.provenance


def _solve_subset(g, target, skip_provenance):
    relations = [r for r in assemble_system(g, target) if r.provenance != skip_provenance]
    formal, aux = unknown_order(g, target, assemble_system(g, target))
    system = exactlin.LinearSystem(tuple(formal + aux))
    for r in relations:
        system.add_row(r.coeffs, r.rhs)
    return formal, exactlin.solve(system)


def test_relations_and_stored_rows_are_integers():
    # the catalog, the relations and the rows stay in int; only answers are Fractions
    for g in range(2, 31):
        for target in (WEIERSTRASS, G12):
            relations = assemble_system(g, target)
            formal, aux = unknown_order(g, target, relations)
            system = exactlin.LinearSystem(tuple(formal + aux))
            for r in relations:
                assert type(r.rhs) is int, r.provenance
                assert all(type(v) is int for v in r.coeffs.values()), r.provenance
                system.add_row(r.coeffs, r.rhs)
            for row, rhs in system.rows:
                assert all(type(v) is int for v in row.values()) and type(rhs) is int
                assert gcd(rhs, *row.values()) == 1


def test_redundancy_certificate_is_honest():
    for g, target in ((4, WEIERSTRASS), (5, G12), (6, G12)):
        report = solve_coefficients(g, target)
        assert report.redundant  # overdetermined by design
        for provenance in report.redundant:
            formal, result = _solve_subset(g, target, provenance)
            assert isinstance(result, exactlin.Unique)
            assert {s: result.assignment[s] for s in formal} == report.coefficients


def test_scaling_relations_leaves_solution_invariant():
    rng = random.Random(7)
    g, target = 4, G12
    baseline = solve_coefficients(g, target)
    relations = assemble_system(g, target)
    formal, aux = unknown_order(g, target, relations)
    system = exactlin.LinearSystem(tuple(formal + aux))
    for r in relations:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        system.add_row({s: scale * c for s, c in r.coeffs.items()}, scale * r.rhs)
    result = exactlin.solve(system)
    assert isinstance(result, exactlin.Unique)
    assert {s: result.assignment[s] for s in formal} == baseline.coefficients


def test_two_determinations_of_invariant_delta_coefficient_coincide():
    for g in range(2, 13):
        report = solve_coefficients(g, G12)
        determinations = independent_a1_determinations(g)
        for i in range(1, g // 2 + 1):
            values = determinations[i]
            assert values, f"no independent determination of a_{i}_1 at g={g}"
            for value in values.values():
                assert value == report.coefficients[f"a_{i}_1"]
            if len(values) == 2:
                low, high = values["low"], values["high"]
                assert low == high


def test_auxiliaries_extend_the_closed_form_tables():
    # every auxiliary solves to the coefficient formula evaluated at its
    # out-of-range index: a strong regression surface for the catalog
    for g in range(2, 17):
        report = solve_coefficients(g, WEIERSTRASS)
        for symbol, value in report.auxiliaries.items():
            _, index, m = symbol.split("_")
            assert value == closedform.w_eta(g, int(index), int(m))
        report = solve_coefficients(g, G12)
        for symbol, value in report.auxiliaries.items():
            _, index, m = symbol.split("_")
            assert value == closedform.g12_eta(g, int(index), int(m))


def test_inconsistent_catalog_raises_with_certificate():
    relations = assemble_system(2, WEIERSTRASS)
    formal, aux = unknown_order(2, WEIERSTRASS, relations)
    system = exactlin.LinearSystem(tuple(formal + aux))
    for r in relations:
        system.add_row(r.coeffs, r.rhs)
    system.add_row({"d": 1}, 4)  # contradicts the diagonal relation (d = 3)
    result = exactlin.solve(system)
    assert isinstance(result, exactlin.Inconsistent)


def test_contradictory_family_raises_solver_error_with_certificate(monkeypatch):
    import hypdiv.families as F
    import hypdiv.solver as S

    original = S.family_vectors

    def with_contradiction(g, target):
        diagonal = F.diagonal_family(g)
        shifted = diagonal._replace(target_degree=diagonal.target_degree + 1)
        return original(g, target) + [shifted]

    monkeypatch.setattr(S, "family_vectors", with_contradiction)
    with pytest.raises(SolverError) as exc:
        S.solve_coefficients(2, WEIERSTRASS)
    certificate = exc.value.certificate
    relations = S.assemble_system(2, WEIERSTRASS)
    added = len(S.family_vectors(2, WEIERSTRASS)) - 1
    assert relations[added].rhs == relations[0].rhs + 1  # the shifted diagonal
    assert added in certificate
    lhs: dict[str, Fraction] = {}
    rhs = Fraction(0)
    for r, mult in certificate.items():
        for symbol, value in relations[r].coeffs.items():
            lhs[symbol] = lhs.get(symbol, Fraction(0)) + mult * value
        rhs += mult * relations[r].rhs
    assert not any(lhs.values()) and rhs != 0


def test_dropping_the_boundary_pencil_exposes_the_g2_gap():
    # without the i=0 pencil the g=2 two-point system leaves the invariant
    # delta coefficient free; the solver must refuse to guess
    g, target = 2, G12
    relations = [r for r in assemble_system(g, target) if r.provenance != "f2ip1[i=0]"]
    formal, aux = unknown_order(g, target, assemble_system(g, target))
    system = exactlin.LinearSystem(tuple(formal + aux))
    for r in relations:
        system.add_row(r.coeffs, r.rhs)
    result = exactlin.solve(system)
    assert isinstance(result, exactlin.Underdetermined)
    assert "a_1_1" in result.free or set(result.free) & {"b_0_1", "b_1_1"}


def test_solve_refuses_to_guess_when_gap_is_injected(monkeypatch):
    import hypdiv.solver as S

    original = S.family_vectors

    def without_boundary_pencil(g, target):
        return [dv for dv in original(g, target) if (dv.family, dv.params) != ("f2ip1", {"i": 0})]

    monkeypatch.setattr(S, "family_vectors", without_boundary_pencil)
    with pytest.raises(SolverError):
        S.solve_coefficients(2, G12)


def test_relation_rejects_empty_form():
    from hypdiv.basis import DomainError

    with pytest.raises(DomainError):
        Relation(coeffs={"d": 0}, rhs=Fraction(0), provenance="empty")


def test_identification_relations_match_parity():
    assert [r.provenance for r in identification_relations(4, WEIERSTRASS)] == [
        "identification[a_2_1=a_2_0]"
    ]
    assert [r.provenance for r in identification_relations(5, WEIERSTRASS)] == [
        "identification[b_2_1=b_2_0]"
    ]
    assert [r.provenance for r in identification_relations(5, G12)] == [
        "identification[b_2_2=b_2_0]"
    ]


def test_solution_expression_is_formal_view():
    from hypdiv.basis import delta

    report = solve_coefficients(2, G12)
    expr = report.solution
    assert expr.terms[delta(1, "1a")] == frac(-1, 5)
    assert expr.terms[delta(1, "1b")] == frac(-1, 5)
    assert expr.terms[delta(1, "2")] == frac(-6, 5)
    merged = expr.canonical()
    assert merged.terms[delta(1, "0")] == frac(-12, 5)  # sum policy
    assert merged.terms[delta(1, "1a")] == frac(-2, 5)


def test_one_formal_table_per_solve(monkeypatch):
    # a verified genus builds the table once, to order the solve's unknowns;
    # the closed-form values and ``solution`` build none
    built = []
    original = F.formal_unknowns

    def counted(g, n):
        built.append(g)
        return original(g, n)

    monkeypatch.setattr(F, "formal_unknowns", counted)
    for target in (WEIERSTRASS, G12):
        built.clear()
        assert closedform.verify_range(2, 8, target).ok
        assert all(built.count(g) == 1 for g in range(2, 9)), built
        report = solve_coefficients(5, target)
        built.clear()
        expr = report.solution
        assert built == []
        assert expr == F.formal_expression(5, F.marked_points(target), report.coefficients)


def test_assembly_builds_no_formal_table(monkeypatch):
    def forbidden(g, n):
        raise AssertionError("assemble_system built a formal table")

    monkeypatch.setattr(F, "formal_unknowns", forbidden)
    for target in (WEIERSTRASS, G12):
        for g in (2, 3, 8):
            assert assemble_system(g, target)


def _reference_solve(g, target, relations):
    # the former assembly order: each form sorted by position in the formal
    # table (delta_{0,2} moved right after eta_irr), auxiliaries last in the
    # order they are first named
    n = F.marked_points(target)
    elements = B.formal_elements(g, n)
    if n == 2:
        elements.insert(3, elements.pop())
    position = {}
    for e in elements:
        position.setdefault(F.unknown(e), len(position))
    forms = [
        dict(sorted(r.coeffs.items(), key=lambda kv: position.get(kv[0], len(position))))
        for r in relations
    ]
    auxiliaries = list(dict.fromkeys(s for form in forms for s in form if s not in position))
    variables = list(position) + auxiliaries
    system = exactlin.LinearSystem(tuple(variables))
    for form, relation in zip(forms, relations):
        system.add_row(form, relation.rhs)
    redundant = [relations[r].provenance for r in exactlin.solve(system).redundant_rows]
    return variables, [list(form) for form in forms], redundant


def test_solver_order_matches_formal_position_reference():
    for target in (WEIERSTRASS, G12):
        for g in range(2, 61):
            report = solve_coefficients(g, target)
            variables, forms, redundant = _reference_solve(g, target, report.relations)
            formal, aux = unknown_order(g, target, report.relations)
            assert formal + aux == variables, (g, target)
            assert [list(r.coeffs) for r in report.relations] == forms, (g, target)
            assert report.redundant == redundant, (g, target)


def test_assembly_checks_the_ambient_per_family_not_per_label(monkeypatch):
    # each family checks (g, n) once itself and once in families._vector;
    # identification_relations adds one through identified_pairs
    calls = []
    check = B.check_ambient

    def counted(g, n):
        calls.append((g, n))
        check(g, n)

    cases = [(g, t, len(family_vectors(g, t))) for t in (WEIERSTRASS, G12) for g in (2, 7, 12)]
    expr = closedform.closed_form(12, G12)
    monkeypatch.setattr(B, "check_ambient", counted)
    for g, target, families in cases:
        calls.clear()
        assemble_system(g, target)
        assert len(calls) <= 2 * families + 1, (g, target, len(calls), families)
    calls.clear()
    B.DivisorExpression.from_terms(12, 2, expr.terms.items())
    assert calls == [(12, 2)]


def test_non_int_genus_rejected():
    from hypdiv.basis import DomainError

    for target in (WEIERSTRASS, G12):
        with pytest.raises(DomainError, match="must be int"):
            solve_coefficients(2.0, target)
    with pytest.raises(DomainError, match=r"^unknown target 'bogus'$"):
        family_vectors(3, "bogus")


@pytest.mark.parametrize("target", [WEIERSTRASS, G12])
def test_elimination_row_operations_stay_within_budget(monkeypatch, target):
    # each row operation of the elimination ends in one _normalize call;
    # add_row's calls, made outside _eliminate, are not counted
    eliminate, normalize = exactlin._eliminate, exactlin._normalize
    state = {"inside": False, "calls": 0}

    def counted_eliminate(sys):
        state["inside"] = True
        try:
            return eliminate(sys)
        finally:
            state["inside"] = False

    def counted_normalize(row, rhs):
        state["calls"] += state["inside"]
        return normalize(row, rhs)

    monkeypatch.setattr(exactlin, "_eliminate", counted_eliminate)
    monkeypatch.setattr(exactlin, "_normalize", counted_normalize)
    for g in [*range(2, 61), 200, 1000]:
        state["calls"] = 0
        report = solve_coefficients(g, target)
        assert state["calls"] <= 1.5 * len(report.relations), (g, target, state["calls"])
