"""Acceptance suite.

Every criterion is exact (zero tolerance): the values under test are
rational numbers compared for equality.  Each test prints one PASS/FAIL
line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hypdiv import basis as B
from hypdiv import cli, closedform, solver, surfcalc
from hypdiv.families import G12, WEIERSTRASS


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_oracle_equivalence_weierstrass():
    with criterion("1 (solver = closed form, weierstrass, g=2..50)"):
        start = time.monotonic()
        report = closedform.verify_range(2, 50, WEIERSTRASS)
        elapsed = time.monotonic() - start
        assert len(report.results) == 49
        for result in report.results:
            assert result.ok, f"g={result.g}: {result.mismatches}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s, expected under 10s"


def test_criterion_2_oracle_equivalence_g12():
    with criterion("2 (solver = closed form, g12, g=2..50)"):
        report = closedform.verify_range(2, 50, G12)
        assert len(report.results) == 49
        for result in report.results:
            assert result.ok, f"g={result.g}: {result.mismatches}"


def test_criterion_3_pinned_g2_weierstrass_table():
    with criterion("3 (pinned g=2 weierstrass table)"):
        report = solver.solve_coefficients(2, WEIERSTRASS)
        assert report.coefficients["d"] == 3
        assert report.coefficients["c"] == Fraction(-1, 10)
        assert report.coefficients["a_1_0"] == Fraction(-6, 5)
        assert report.coefficients["a_1_1"] == Fraction(-6, 5)


def test_criterion_4_pinned_g3_g12_values():
    with criterion("4 (pinned g=3 g12 values, denominator 14 not 16)"):
        report = solver.solve_coefficients(3, G12)
        assert report.coefficients["b_1_1"] == Fraction(1, 14)
        assert report.coefficients["a_1_1"] == Fraction(1, 14)
        assert (3 - 1) * (2 * 3 + 1) == 14
        assert report.coefficients["a_1_1"].denominator == 14
        assert report.coefficients["a_1_1"] != Fraction(1, 16)


def test_criterion_5_surface_calculus_chains():
    with criterion("5 (surface-calculus unit chains)"):
        assert surfcalc.branch_section_self_intersection(1, 0, 2) == -1
        for h in range(1, 51):
            assert surfcalc.branch_section_self_intersection(1, 1, 2 * h + 2) == -h
        for g in range(0, 51):
            assert surfcalc.diagonal_self_intersection(g) == 2 - 2 * g
        # one blowup knocks the diagonal self-intersection down by one
        assert surfcalc.section_after_blowups(surfcalc.diagonal_self_intersection(5), 1) == -9


def test_criterion_6_consistency_uniqueness_determinations():
    with criterion("6 (consistent, unique, coinciding determinations, g=2..20)"):
        for g in range(2, 21):
            for target in (WEIERSTRASS, G12):
                report = solver.solve_coefficients(g, target)  # raises on any defect
                assert report.rank == report.n_unknowns
            determinations = solver.independent_a1_determinations(g)
            solved = solver.solve_coefficients(g, G12).coefficients
            for i in range(1, g // 2 + 1):
                values = determinations[i]
                assert values, f"a_{i}_1 has no independent determination at g={g}"
                assert all(v == solved[f"a_{i}_1"] for v in values.values())
                assert len(set(values.values())) == 1


def test_criterion_7_structural_suite():
    with criterion("7 (structural: dimensions, idempotence, coherence, parity)"):
        for g in range(2, 101):
            for n in (1, 2):
                elements = B.enumerate_basis(g, n)
                assert B.basis_dimension(g, n) == len(elements)
                assert len(set(elements)) == len(elements)
                for e in B.formal_elements(g, n):
                    once = B.canonicalize(e, g, n)
                    assert B.canonicalize(once, g, n) == once
            even = 1 if g % 2 == 0 else 0
            assert B.basis_dimension(g, 1) == 2 + (2 * (g // 2) - even) + (
                2 * ((g - 1) // 2) - (1 - even)
            )
        for g in range(2, 101, 2):
            assert closedform.w_delta(g, g // 2, 0) == closedform.w_delta(g, g // 2, 1)
            assert closedform.g12_delta(g, g // 2, 0) == closedform.g12_delta(g, g // 2, 2)
        for g in range(3, 101, 2):
            t = (g - 1) // 2
            assert closedform.w_eta(g, t, 0) == closedform.w_eta(g, t, 1)
            assert closedform.g12_eta(g, t, 0) == closedform.g12_eta(g, t, 2)
        for g in range(2, 21):
            for target in (WEIERSTRASS, G12):
                for dv in solver.family_vectors(g, target):
                    assert dv.degree(B.eta_irr()) % 2 == 0


def test_criterion_8_cli_contract(capsys, monkeypatch):
    with criterion("8 (CLI round-trip and exit-status contract)"):
        for target in (WEIERSTRASS, G12):
            record = cli.verification_record(closedform.verify_range(2, 8, target))
            assert json.loads(json.dumps(record)) == record
            assert record["ok"]
        for g in range(2, 7):
            for target in (WEIERSTRASS, G12):
                for view in ("formal", "canonical"):
                    rec = cli.output_record(g, target, view, closedform.closed_form(g, target))
                    assert cli.parse_record(cli.render_json(rec)) == rec

        assert cli.main(["verify", "--range", "2..4", "--divisor", "both"]) == cli.EXIT_OK
        capsys.readouterr()

        original = solver.solve_coefficients

        def perturbed(g, target):
            report = original(g, target)
            report.coefficients["d"] += 1  # the psi coefficient
            return report

        monkeypatch.setattr(solver, "solve_coefficients", perturbed)
        assert cli.main(["verify", "--range", "2..2", "--divisor", "w"]) == cli.EXIT_MISMATCH
        monkeypatch.undo()
        capsys.readouterr()

        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--divisor", "w", "--genus", "1"])
        assert exc.value.code == cli.EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--range", "5..2"])
        assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()
