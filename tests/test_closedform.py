"""Closed-form tables: frozen small-genus values, symmetries, coherence."""

from fractions import Fraction

import pytest

from hypdiv import basis as B
from hypdiv import closedform as CF
from hypdiv import families as F
from hypdiv.basis import delta, eta, eta_irr, psi
from hypdiv.cli import _verify_lines, render_relation
from hypdiv.families import G12, WEIERSTRASS


def frac(n, d=1):
    return Fraction(n, d)


W3 = CF.closed_form_values(3, WEIERSTRASS)  # read before any test patches closedform


def test_weierstrass_class_g2():
    expr = CF.closed_form(2, WEIERSTRASS)
    assert expr.terms == {
        psi(1): frac(3),
        eta_irr(): frac(-1, 10),
        delta(1, "0"): frac(-6, 5),
        delta(1, "1"): frac(-6, 5),
    }


def test_weierstrass_class_g3():
    expr = CF.closed_form(3, WEIERSTRASS)
    assert expr.terms == {
        psi(1): frac(2),
        eta_irr(): frac(-1, 28),
        delta(1, "0"): frac(-3, 7),
        delta(1, "1"): frac(-10, 7),
        eta(1, "0"): frac(-3, 7),
        eta(1, "1"): frac(-3, 7),
    }


def test_weierstrass_psi_coefficient():
    assert CF.closed_form_values(11, WEIERSTRASS)["d"] == frac(6, 5)
    for g in range(2, 60):
        assert CF.closed_form(g, WEIERSTRASS).terms[psi(1)] == frac(g + 1, g - 1)


def test_g12_class_g2():
    expr = CF.closed_form(2, G12)
    assert expr.terms == {
        psi(1): frac(1),
        psi(2): frac(1),
        eta_irr(): frac(-1, 10),
        B.delta_0_2(): frac(-3),
        delta(1, "0"): frac(-6, 5),
        delta(1, "1a"): frac(-1, 5),
        delta(1, "1b"): frac(-1, 5),
        delta(1, "2"): frac(-6, 5),
    }


def test_g12_g3_invariant_coefficients():
    assert CF.g12_delta(3, 1, 1) == frac(1, 14)
    assert CF.g12_eta(3, 1, 1) == frac(1, 14)
    # independent confirmation through the ruling relation
    values = CF.closed_form_values(3, G12)
    c, d = values["c"], values["d"]
    a, b = CF.g12_delta(3, 1, 1), CF.g12_eta(3, 1, 1)
    assert -2 * a + 4 * b + 32 * c + 2 * d == 0


def test_g12_denominator_normalization():
    # reduced denominators divide (g-1)(2g+1); the (g-1)(2g+2) reading fails
    for g in range(2, 101):
        den = (g - 1) * (2 * g + 1)
        for i in range(1, g // 2 + 1):
            assert den % CF.g12_delta(g, i, 1).denominator == 0
    assert CF.g12_delta(3, 1, 1) == frac(1, 14)
    assert CF.g12_delta(3, 1, 1) != frac(1, 16)


def test_delta_numerator_reflection_symmetry():
    # one near-side formula per kind: it gives slot 0 at index i and slot 1
    # at the reflected index, which lies past the table's range
    def near_delta(g, j):
        return Fraction(-2 * j * (2 * j + 1), (g - 1) * (2 * g + 1))

    def near_eta(g, j):
        return Fraction(-(j + 1) * (2 * j + 1), (g - 1) * (2 * g + 1))

    for g in range(2, 101):
        for i in range(1, g // 2 + 1):
            assert CF.w_delta(g, i, 0) == near_delta(g, i)
            assert CF.w_delta(g, i, 1) == near_delta(g, g - i)
    for g in range(2, 101):
        for i in range(1, (g - 1) // 2 + 1):
            assert CF.w_eta(g, i, 0) == near_eta(g, i)
            assert CF.w_eta(g, i, 1) == near_eta(g, g - 1 - i)


def test_identified_index_coherence():
    for g in range(2, 101, 2):
        assert CF.w_delta(g, g // 2, 0) == CF.w_delta(g, g // 2, 1)
        assert CF.g12_delta(g, g // 2, 0) == CF.g12_delta(g, g // 2, 2)
    for g in range(3, 101, 2):
        t = (g - 1) // 2
        assert CF.w_eta(g, t, 0) == CF.w_eta(g, t, 1)
        assert CF.g12_eta(g, t, 0) == CF.g12_eta(g, t, 2)


def test_canonicalization_well_defined_on_closed_forms():
    # merging identified labels never silently changes a coefficient ratio:
    # the two merged values are equal, so the canonical value is twice each
    from hypdiv import cli

    for g in (2, 4, 7, 9):
        for target in (WEIERSTRASS, G12):
            expr = CF.closed_form(g, target)
            record = cli.output_record(g, target, "canonical", expr)
            merged = {t["class"]: Fraction(t["num"], t["den"]) for t in record["terms"]}
            for twin, canonical in B.identified_pairs(g, expr.n):
                if twin in expr.terms:
                    assert expr.terms[twin] == expr.terms[canonical]
                    assert merged[canonical.name(expr.n)] == 2 * expr.terms[canonical]


def test_sign_table():
    for g in range(2, 51):
        w = CF.closed_form(g, WEIERSTRASS)
        for element, value in w.terms.items():
            if element == psi(1):
                assert value > 0
            else:
                assert value < 0
        h = CF.closed_form(g, G12)
        for element, value in h.terms.items():
            if element.kind == B.PSI:
                assert value > 0
            elif element.kind in (B.DELTA, B.ETA) and element.marking in ("1a", "1b"):
                continue  # the only possibly-positive boundary coefficients
            else:
                assert value < 0


def test_closed_forms_satisfy_every_assembled_relation():
    # every unknown takes its closed-form value; an auxiliary b_j_m takes the
    # eta formula at its out-of-range index j
    from hypdiv.solver import assemble_system

    tables = {
        WEIERSTRASS: {"a": CF.w_delta, "b": CF.w_eta},
        G12: {"a": CF.g12_delta, "b": CF.g12_eta},
    }
    for target, table in tables.items():
        for g in range(2, 41):
            values = CF.closed_form_values(g, target)

            def value(name):
                if name in ("d", "c", "a_0_2"):
                    return values[name]
                kind, i, m = name.split("_")
                return table[kind](g, int(i), int(m))

            for relation in assemble_system(g, target):
                lhs = sum(coeff * value(name) for name, coeff in relation.coeffs.items())
                assert lhs == relation.rhs, (g, render_relation(relation))


# target -> boundary kind -> its public closed-form function
FORMULAS = {
    WEIERSTRASS: {B.DELTA: CF.w_delta, B.ETA: CF.w_eta},
    G12: {B.DELTA: CF.g12_delta, B.ETA: CF.g12_eta},
}


def _table_closed_form_values(g, target):
    # reference: each unknown's formula at its first formal label, a global one
    # read off the numerator table, a boundary one through its public function
    formulas = FORMULAS[target]
    values = {}
    for e in B.formal_elements(g, F.marked_points(target)):
        if F.unknown(e) not in values:
            if e.kind in (B.DELTA, B.ETA):
                value = formulas[e.kind](g, e.index, int(e.marking[0]))
            else:
                value = Fraction(CF._NUMERATORS[target][e.kind](g), 2 * (g - 1) * (2 * g + 1))
            values[F.unknown(e)] = value
    return values


def test_closed_form_values_match_the_table_reference():
    for target in (WEIERSTRASS, G12):
        for g in range(2, 61):
            assert CF.closed_form_values(g, target) == _table_closed_form_values(g, target), (
                g,
                target,
            )


def test_numerators_are_over_one_denominator_in_solver_order():
    for target in (WEIERSTRASS, G12):
        n = F.marked_points(target)
        for g in range(2, 41):
            den = 2 * (g - 1) * (2 * g + 1)
            nums = CF.closed_form_numerators(g, target)
            assert list(nums) == list(F.formal_unknowns(g, n)), (g, target)
            assert all(type(v) is int for v in nums.values())
            values = CF.closed_form_values(g, target)
            assert {u: Fraction(v, den) for u, v in nums.items()} == values
            assert nums["c"] == -1  # eta_irr's numerator: the reason for the factor 2


def test_verify_single_genus():
    report = CF.verify_range(2, 2, WEIERSTRASS)
    assert report.ok
    assert len(report.results) == 1
    assert report.results[0].rank == report.results[0].n_unknowns


def test_verify_small_sweep_both_targets():
    assert CF.verify_range(2, 10, WEIERSTRASS).ok
    assert CF.verify_range(2, 10, G12).ok


def _perturbed_verify(monkeypatch, target, change):
    # verify g = 2..4 with ``change`` applied to the solver's coefficients at g = 3
    import hypdiv.solver as S

    original = S.solve_coefficients

    def perturbed(g, target):
        report = original(g, target)
        if g == 3:
            change(report.coefficients)
        return report

    monkeypatch.setattr(S, "solve_coefficients", perturbed)
    report = CF.verify_range(2, 4, target)
    assert not report.ok
    assert [r.g for r in report.results if not r.ok] == [3]
    assert "mismatches at g in [3]" in list(_verify_lines([report]))[-1]
    return report.results[1]


def test_verify_reports_mismatch_without_raising(monkeypatch):
    result = _perturbed_verify(monkeypatch, WEIERSTRASS, lambda c: c.update(d=c["d"] + 1))
    name, got, want = result.mismatches[0]
    assert name == "psi" and got == want + 1


def test_verify_reports_a_changed_denominator(monkeypatch):
    # the numerator stays: only the cross-multiplied comparison tells them apart
    def change(coefficients):
        d = coefficients["d"]
        coefficients["d"] = Fraction(d.numerator, d.denominator + 1)

    result = _perturbed_verify(monkeypatch, G12, change)
    want = CF.closed_form_values(3, G12)["d"]
    got = Fraction(want.numerator, want.denominator + 1)
    assert result.mismatches == [("psi1", got, want), ("psi2", got, want)]
    from hypdiv import cli

    lines = list(cli._verify_lines([CF.VerificationReport(G12, 3, 3, [result])]))
    assert lines[0].startswith("g12 g=3: MISMATCH (rank ")
    assert lines[1:3] == [f"  psi{k}: solver={got} closed={want}" for k in (1, 2)]


@pytest.mark.parametrize(
    "change, mismatch",
    [
        (lambda c: c.pop("a_1_1"), ("delta_1_1", None, Fraction(-10, 7))),
        (lambda c: c.update(a_9_0=Fraction(1, 3)), ("a_9_0", Fraction(1, 3), None)),
    ],
    ids=["dropped", "extra"],
)
def test_verify_reports_a_dropped_or_an_extra_unknown(monkeypatch, change, mismatch):
    assert _perturbed_verify(monkeypatch, WEIERSTRASS, change).mismatches == [mismatch]


def test_mismatching_genus_reports_without_closed_form_values(monkeypatch):
    # one predicate decides the genus and names the rows; no second comparison
    # over closed_form_values runs to report them
    def forbidden(*args):
        raise AssertionError("verify called closed_form_values")

    def change(coefficients):
        coefficients.update(d=coefficients["d"] + 1, a_9_0=Fraction(1, 3))
        coefficients.pop("a_1_1")

    monkeypatch.setattr(CF, "closed_form_values", forbidden)
    result = _perturbed_verify(monkeypatch, WEIERSTRASS, change)
    assert result.mismatches == [
        ("psi", W3["d"] + 1, W3["d"]),
        ("delta_1_1", None, CF.w_delta(3, 1, 1)),
        ("a_9_0", Fraction(1, 3), None),
    ]


def _verify_against_changed_numerators(monkeypatch, target, change):
    # verify g = 2..4 with ``change`` applied to the closed-form numerators at g = 3
    original = CF.closed_form_numerators

    def changed(g, target):
        nums = original(g, target)
        if g == 3:
            change(nums)
        return nums

    monkeypatch.setattr(CF, "closed_form_numerators", changed)
    report = CF.verify_range(2, 4, target)
    assert [r.g for r in report.results if not r.ok] == [3]
    return report.results[1]


@pytest.mark.parametrize(
    "change, mismatches",
    [
        # a formal unknown the closed forms lack: the solver's value against None
        (lambda nums: nums.pop("a_1_1"), [("delta_1_1", Fraction(-10, 7), None)]),
        # an unknown only the closed forms have, over the denominator 2(g-1)(2g+1) = 28
        (lambda nums: nums.update(b_9_0=7), [("b_9_0", None, Fraction(1, 4))]),
        (
            lambda nums: nums.update(d=nums["d"] + 28, z=-28, b_9_0=7),
            [("psi", W3["d"], W3["d"] + 1), ("b_9_0", None, Fraction(1, 4)),
             ("z", None, Fraction(-1))],
        ),
    ],
    ids=["formal_only_in_the_solver", "only_in_the_closed_forms", "after_the_formal_labels"],
)
def test_verify_reports_an_unknown_on_either_side_only(monkeypatch, change, mismatches):
    result = _verify_against_changed_numerators(monkeypatch, WEIERSTRASS, change)
    assert not result.ok and result.mismatches == mismatches


def test_verify_orders_the_unknowns_no_label_names_by_name(monkeypatch):
    # one on each side: after the formal labels, sorted, whichever side has them
    import hypdiv.solver as S

    original = S.solve_coefficients

    def extra(g, target):
        report = original(g, target)
        if g == 3:
            report.coefficients["a_9_0"] = Fraction(1, 3)
        return report

    monkeypatch.setattr(S, "solve_coefficients", extra)
    result = _verify_against_changed_numerators(
        monkeypatch, G12, lambda nums: nums.update(a_10_0=-1, a_1_2=0)
    )
    assert result.mismatches == [
        ("delta_1_2", CF.g12_delta(3, 1, 2), None),
        ("a_10_0", None, Fraction(-1, 28)),
        ("a_9_0", Fraction(1, 3), None),
    ]


def test_verify_checks_the_auxiliaries(monkeypatch):
    # b_0_0 is named by no formal class; its closed form is the eta row read at i = 0
    eta_row = CF._NUMERATORS[WEIERSTRASS][B.ETA]
    changed = lambda g, i, m: eta_row(g, i, m) + (i == 0)
    monkeypatch.setitem(CF._NUMERATORS[WEIERSTRASS], B.ETA, changed)
    report = CF.verify_range(2, 4, WEIERSTRASS)
    assert [r.g for r in report.results if not r.ok] == [2, 3, 4]
    assert report.results[0].mismatches == [("b_0_0", Fraction(-1, 5), Fraction(-1, 10))]


@pytest.mark.parametrize("target", [WEIERSTRASS, G12])
def test_verify_checks_each_auxiliary_the_solver_reports(monkeypatch, target):
    # each auxiliary, alone, against the eta row changed at its (i, m) only
    import hypdiv.solver as S

    eta_row = CF._NUMERATORS[target][B.ETA]
    for g in range(2, 8):
        auxiliaries = S.solve_coefficients(g, target).auxiliaries
        n = F.marked_points(target)
        spots = [(0, m) for m in range(n)] + [(g // 2, m) for m in range(1, n + 1)] * (g % 2 == 0)
        assert set(auxiliaries) == {f"b_{i}_{m}" for i, m in spots}, (g, target)
        for name, value in auxiliaries.items():
            spot = tuple(map(int, name.split("_")[1:]))
            changed = lambda G, i, m: eta_row(G, i, m) + ((i, m) == spot)
            monkeypatch.setitem(CF._NUMERATORS[target], B.ETA, changed)
            (result,) = CF.verify_range(g, g, target).results
            want = value + Fraction(1, 2 * (g - 1) * (2 * g + 1))
            assert result.mismatches == [(name, value, want)], (g, target, name)


@pytest.mark.parametrize(
    "change, mismatch",
    [
        (lambda a: a.pop("b_0_0"), ("b_0_0", None, Fraction(-1, 14))),
        (lambda a: a.update(b_5_0=Fraction(1)), ("b_5_0", Fraction(1), None)),
    ],
    ids=["dropped", "extra"],
)
def test_verify_reports_a_dropped_or_an_extra_auxiliary(monkeypatch, change, mismatch):
    import hypdiv.solver as S

    original = S.solve_coefficients

    def perturbed(g, target):
        report = original(g, target)
        if g == 3:
            change(report.auxiliaries)
        return report

    monkeypatch.setattr(S, "solve_coefficients", perturbed)
    report = CF.verify_range(2, 4, WEIERSTRASS)
    assert [r.g for r in report.results if not r.ok] == [3]
    assert report.results[1].mismatches == [mismatch]


def test_passing_verify_builds_no_fraction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("closedform built a Fraction")

    monkeypatch.setattr(CF, "Fraction", forbidden)
    for target in (WEIERSTRASS, G12):
        assert CF.verify_range(2, 30, target).ok


def test_invalid_range_rejected():
    with pytest.raises(B.DomainError):
        CF.verify_range(5, 2, WEIERSTRASS)
    with pytest.raises(B.DomainError):
        CF.verify_range(1, 3, WEIERSTRASS)


def test_non_int_genus_rejected():
    with pytest.raises(B.DomainError, match="must be int"):
        CF.closed_form(4.0, G12)
    with pytest.raises(B.DomainError, match="must be int"):
        CF.closed_form_values(4.0, WEIERSTRASS)
    with pytest.raises(B.DomainError, match="must be int"):
        CF.closed_form_numerators(4.0, G12)
    for lo, hi in ((2, 3.5), (2.0, 3)):
        with pytest.raises(B.DomainError, match="must be int"):
            CF.verify_range(lo, hi, G12)
    # integer input keeps its message
    with pytest.raises(B.DomainError, match=r"^invalid genus range 5\.\.2$"):
        CF.verify_range(5, 2, WEIERSTRASS)


# per target, the readers of the global coefficients, then the boundary functions
CLOSED_FORMS = [
    (CF.closed_form_values, (WEIERSTRASS,)),
    (CF.closed_form_numerators, (WEIERSTRASS,)),
    (CF.w_delta, (1, 0)),
    (CF.w_delta, (1, 1)),
    (CF.w_eta, (1, 0)),
    (CF.w_eta, (1, 1)),
    (CF.closed_form_values, (G12,)),
    (CF.closed_form_numerators, (G12,)),
    (CF.closed_form, (G12,)),
    (CF.g12_delta, (1, 0)),
    (CF.g12_delta, (1, 1)),
    (CF.g12_eta, (1, 0)),
    (CF.g12_eta, (1, 1)),
]


@pytest.mark.parametrize("formula, indices", CLOSED_FORMS)
def test_closed_form_functions_reject_a_bad_genus(formula, indices):
    # exactly DomainError: not the ZeroDivisionError of g = 1, nor a TypeError
    for g in (1, 0, -3, 2.0, Fraction(3), "3", None, True):
        with pytest.raises(B.DomainError) as caught:
            formula(g, *indices)
        assert type(caught.value) is B.DomainError, g


@pytest.mark.parametrize(
    "formula, args",
    [
        (CF.w_delta, (4, 7, 0)),  # index past g // 2
        (CF.w_delta, (4, 0, 0)),  # delta starts at index 1
        (CF.w_eta, (4, 3, 0)),
        (CF.w_eta, (4, -1, 1)),
        (CF.g12_delta, (4, 1, 5)),  # slot past 2
        (CF.w_delta, (4, 1, 2)),  # a Weierstrass slot is 0 or 1
        (CF.w_eta, (5, 1, -1)),
        (CF.g12_eta, (6, 2, True)),  # a bool is not an int slot
        (CF.g12_delta, (6, True, 0)),
        (CF.g12_delta, (4, 2, 1.0)),
        (CF.w_eta, (5, 1.0, 0)),
    ],
)
def test_closed_form_functions_reject_an_index_or_slot_outside_their_domain(formula, args):
    # exactly DomainError: not a value read off the formula past its table
    with pytest.raises(B.DomainError) as caught:
        formula(*args)
    assert type(caught.value) is B.DomainError


def test_verify_names_an_auxiliary_reported_under_a_formal_name_by_its_unknown(monkeypatch):
    # the auxiliaries are compared apart from the formal unknowns: the solver's b_0_0 renamed
    # to the formal b_1_0 neither hides the formal b_1_0 (eta_1_0) nor takes its class name
    import hypdiv.solver as S

    original = S.solve_coefficients

    def perturbed(g, target):
        report = original(g, target)
        if g == 3:
            report.auxiliaries["b_1_0"] = report.auxiliaries.pop("b_0_0")
        return report

    monkeypatch.setattr(S, "solve_coefficients", perturbed)
    report = CF.verify_range(2, 4, WEIERSTRASS)
    assert [r.g for r in report.results if not r.ok] == [3]
    b_0_0 = CF.w_eta(3, 0, 0)  # the solver's value, which the closed form confirms
    assert report.results[1].mismatches == [("b_0_0", None, b_0_0), ("b_1_0", b_0_0, None)]
