"""CLI contract: formats, round-trips, and the exit-status table."""

import hashlib
import json

import pytest

from hypdiv import cli
from hypdiv.basis import DivisorExpression, DomainError, delta, eta_irr
from hypdiv.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main, parse_record, render_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_coeffs_csv_g2_weierstrass(capsys):
    code, out = run(capsys, "coeffs", "--divisor", "w", "--genus", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "class,numerator,denominator"
    assert lines[1:] == ["psi,3,1", "eta_irr,-1,10", "delta_1_0,-6,5", "delta_1_1,-6,5"]


def test_coeffs_json_g2_g12(capsys):
    code, out = run(capsys, "coeffs", "--divisor", "g12", "--genus", "2", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert {"class": "delta_0_2", "num": -3, "den": 1} in record["terms"]
    assert record["view"] == "formal"
    assert "delta_1_2 = delta_1_0" in record["metadata"]["identified"]


def test_coeffs_solver_source_matches_closed(capsys):
    _, closed = run(capsys, "coeffs", "--divisor", "g12", "--genus", "4")
    _, solved = run(capsys, "coeffs", "--divisor", "g12", "--genus", "4", "--source", "solver")
    assert json.loads(closed)["terms"] == json.loads(solved)["terms"]


def test_coeffs_canonical_view_merges(capsys):
    code, out = run(
        capsys, "coeffs", "--divisor", "w", "--genus", "2", "--view", "canonical", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert "delta_1_0,-12,5" in lines  # merged coefficient is the sum
    assert all(not line.startswith("delta_1_1,") for line in lines)


def test_coeffs_latex_shape(capsys):
    code, out = run(capsys, "coeffs", "--divisor", "w", "--genus", "2", "--format", "latex")
    assert code == EXIT_OK
    assert out.count(r"\[") == 1 and out.count(r"\]") == 1
    assert r"3\psi" in out and r"\tfrac{1}{10}\eta_{\mathrm{irr}}" in out


def test_json_round_trip_on_coeffs_records():
    from hypdiv import closedform
    from hypdiv.cli import output_record
    from hypdiv.families import G12, WEIERSTRASS

    for g in range(2, 7):
        for target in (WEIERSTRASS, G12):
            for view in ("formal", "canonical"):
                record = output_record(g, target, view, closedform.closed_form(g, target))
                assert parse_record(render_json(record)) == record


@pytest.mark.parametrize(
    "g, target, made_at",
    [(5, "weierstrass", (3, "weierstrass")), (3, "g12", (3, "weierstrass"))],
    ids=["other_genus", "other_marked_points"],
)
def test_output_record_refuses_an_expression_of_another_ambient(g, target, made_at):
    # neither a record with part of another genus's terms nor one whose class
    # names render_latex cannot read
    from hypdiv import closedform

    for view in ("formal", "canonical"):
        with pytest.raises(DomainError, match="is no .* record"):
            cli.output_record(g, target, view, closedform.closed_form(*made_at))


def test_output_record_refuses_a_view_that_is_not_formal_or_canonical():
    # the parser guards --view, but output_record is called directly too
    from hypdiv import closedform

    expr = closedform.closed_form(3, "weierstrass")
    for view in ("bogus", "Formal", ""):
        with pytest.raises(DomainError, match=repr(view)):
            cli.output_record(3, "weierstrass", view, expr)


# labels no class at g = 3, n = 1 has; the last two equal delta(1, "0") and hash as it does
STRAY_LABELS = [delta(9, "0"), ("delta", 1), ("eta_irr", 7, "q"), delta(1.0, "0"), delta(True, "0")]


@pytest.mark.parametrize("label", STRAY_LABELS, ids=repr)
def test_output_record_refuses_a_label_of_no_formal_class(label):
    # unchecked, such a term is dropped from the record or read as delta_1_0; a zero
    # coefficient does not excuse it
    for coeff in (1, 0):
        expr = DivisorExpression(3, 1, {eta_irr(): 1, label: coeff})
        for view in ("formal", "canonical"):
            with pytest.raises(DomainError) as caught:
                cli.output_record(3, "weierstrass", view, expr)
            assert type(caught.value) is DomainError and repr(label) in str(caught.value)


@pytest.mark.parametrize("coeff", [0.5, 0.0, "x", True, None], ids=repr)
def test_output_record_refuses_a_coefficient_that_is_not_rational(coeff):
    # unchecked, True is written as 1, 0.0 and None are dropped as falsy, and 0.5
    # and "x" fail on .numerator
    expr = DivisorExpression(3, 1, {eta_irr(): 1, delta(1, "0"): coeff})
    for view in ("formal", "canonical"):
        with pytest.raises(TypeError) as caught:
            cli.output_record(3, "weierstrass", view, expr)
        assert type(caught.value) is TypeError
        assert "delta_1_0" in str(caught.value) and repr(coeff) in str(caught.value)


@pytest.mark.parametrize(
    "expr",
    [
        DivisorExpression(3, 1, [(eta_irr(), 1)]),
        DivisorExpression(3, 1, None),
        None,
        DivisorExpression(5, 2, None),  # of another ambient too: the type is checked first
        (3, 1, {eta_irr(): 1}),  # the fields of an expression, in a plain tuple
    ],
    ids=repr,
)
def test_output_record_refuses_what_is_no_expression_with_dict_terms(expr):
    # unchecked, each failed on .items() or .g with a bare AttributeError
    for view in ("formal", "canonical"):
        with pytest.raises(TypeError) as caught:
            cli.output_record(3, "weierstrass", view, expr)
        assert type(caught.value) is TypeError and repr(expr) in str(caught.value)


def test_output_record_checks_a_coefficient_before_its_label():
    for label, coeff in ((delta(9, "0"), 0.5), (("delta", 1), None), (delta(1.0, "0"), True)):
        expr = DivisorExpression(3, 1, {eta_irr(): 1, label: coeff})
        with pytest.raises(TypeError, match="must be rational") as caught:
            cli.output_record(3, "weierstrass", "formal", expr)
        assert type(caught.value) is TypeError


def test_the_acceptance_path_and_the_coeffs_path_write_one_record():
    # output_record on closed_form (acceptance criterion 8) against _record on the
    # {unknown: value} map that ``coeffs`` hands it
    from hypdiv import closedform
    from hypdiv.families import G12, WEIERSTRASS, unknown

    for g in range(2, 41):
        for target in (WEIERSTRASS, G12):
            expr = closedform.closed_form(g, target)
            values = closedform.closed_form_values(g, target)
            for view in ("formal", "canonical"):
                want = cli._record(g, target, view, lambda e: values[unknown(e)])
                assert cli.output_record(g, target, view, expr) == want, (g, target, view)


def test_render_latex_reads_labels_by_position_and_names_none(monkeypatch):
    # the record's basis_order is paired with its view's labels, so rendering spells
    # no formal name again; a record whose order is not its view's is refused
    from collections import Counter

    from hypdiv import basis as B
    from hypdiv import closedform

    named = Counter()
    name = B.BasisElement.name

    def counted(self, n):
        named[self] += 1
        return name(self, n)

    expr = closedform.closed_form(200, "g12")
    for view, other in (("formal", "canonical"), ("canonical", "formal")):
        record = cli.output_record(200, "g12", view, expr)
        named.clear()
        with monkeypatch.context() as patched:
            patched.setattr(B.BasisElement, "name", counted)
            rendered = cli.render_latex(record)
        assert named == Counter(), view
        assert rendered.startswith(f"% genus 200, view {view}\n")
        with pytest.raises(DomainError, match=f"names for the .* labels of view '{other}'$"):
            cli.render_latex({**record, "view": other})
        with pytest.raises(DomainError, match="'bogus'"):
            cli.render_latex({**record, "view": "bogus"})


def test_json_round_trip_on_verify_records():
    from hypdiv import closedform
    from hypdiv.cli import verification_record
    from hypdiv.families import G12, WEIERSTRASS

    for target in (WEIERSTRASS, G12):
        record = verification_record(closedform.verify_range(2, 6, target))
        assert json.loads(json.dumps(record)) == record


def test_csv_json_same_multiset(capsys):
    _, json_out = run(capsys, "coeffs", "--divisor", "g12", "--genus", "5", "--format", "json")
    _, csv_out = run(capsys, "coeffs", "--divisor", "g12", "--genus", "5", "--format", "csv")
    record = json.loads(json_out)
    json_pairs = sorted((t["class"], t["num"], t["den"]) for t in record["terms"])
    csv_pairs = sorted(
        (name, int(num), int(den))
        for name, num, den in (
            line.split(",") for line in csv_out.strip().splitlines()[1:]
        )
    )
    assert json_pairs == csv_pairs


def test_verify_single_genus_ok(capsys):
    code, out = run(capsys, "verify", "--range", "2..2", "--divisor", "w")
    assert code == EXIT_OK
    assert "weierstrass g=2: ok" in out


def test_verify_json_report(capsys):
    code, out = run(capsys, "verify", "--range", "2..4", "--divisor", "both", "--json")
    assert code == EXIT_OK
    reports = json.loads(out)
    assert [r["target"] for r in reports] == ["weierstrass", "g12"]
    assert all(r["ok"] for r in reports)
    assert json.loads(json.dumps(reports)) == reports


def test_verify_exit_one_on_injected_fault(capsys, monkeypatch):
    import hypdiv.solver as S

    original = S.solve_coefficients

    def perturbed(g, target):
        report = original(g, target)
        report.coefficients["d"] += 1  # the psi coefficient
        return report

    monkeypatch.setattr(S, "solve_coefficients", perturbed)
    code, out = run(capsys, "verify", "--range", "3..3", "--divisor", "w")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


def test_verify_mismatch_text_names_labels_in_formal_order(capsys, monkeypatch):
    # a zero solver value reads None; the invariant a_1_1 names both 1a and
    # 1b; delta_0_2, the third unknown, is the last formal label
    from fractions import Fraction

    import hypdiv.solver as S

    original = S.solve_coefficients

    def perturbed(g, target):
        report = original(g, target)
        report.coefficients["d"] = Fraction(0)
        report.coefficients["a_0_2"] += 1
        report.coefficients["a_1_1"] += 1
        return report

    monkeypatch.setattr(S, "solve_coefficients", perturbed)
    code, out = run(capsys, "verify", "--range", "2..2", "--divisor", "g12")
    assert code == EXIT_MISMATCH
    assert out.splitlines() == [
        "g12 g=2: MISMATCH (rank 10/10, 1 redundant)",
        "  psi1: solver=None closed=1",
        "  psi2: solver=None closed=1",
        "  delta_1_1a: solver=4/5 closed=-1/5",
        "  delta_1_1b: solver=4/5 closed=-1/5",
        "  delta_0_2: solver=-2 closed=-3",
        "g12: 1 genera checked, mismatches at g in [2]",
    ]
    code, out = run(capsys, "verify", "--range", "2..2", "--divisor", "g12", "--json")
    assert code == EXIT_MISMATCH
    mismatches = json.loads(out)[0]["results"][0]["mismatches"]
    assert mismatches[0] == {"class": "psi1", "solver": None, "closed": {"num": 1, "den": 1}}
    assert [m["class"] for m in mismatches] == [
        "psi1", "psi2", "delta_1_1a", "delta_1_1b", "delta_0_2"
    ]
    assert mismatches[-1]["solver"] == {"num": -2, "den": 1}


def test_verify_names_the_family_of_an_inconsistent_catalog(capsys, monkeypatch):
    import hypdiv.families as F
    import hypdiv.solver as S

    *groups, (pencil,) = F.CATALOG[2]

    def perturbed(g, i, j):  # the target degree of the catalog's last member, plus one
        return pencil.target_degree(g, i, j) + (1 if i == pencil.indices(g)[-1] else 0)

    monkeypatch.setitem(F.CATALOG, 2, (*groups, (pencil._replace(target_degree=perturbed),)))
    assemble = S.assemble_system
    assembled = []

    def counted(g, target):
        assembled.append(g)
        return assemble(g, target)

    monkeypatch.setattr(S, "assemble_system", counted)
    family = F.relations(3, 2)[-1].provenance
    code, out = run(capsys, "verify", "--range", "3..4", "--divisor", "g12")
    assert code == EXIT_MISMATCH
    assert assembled == [3, 4]  # naming the certificate needs no second assembly
    lines = out.splitlines()
    assert lines[0] == "g12 g=3: MISMATCH"
    assert lines[1].startswith("  inconsistent: ") and family in lines[1]
    assert lines[2] == "g12 g=4: MISMATCH"  # the next genus is still reported
    assert lines[-1] == "g12: 2 genera checked, mismatches at g in [3, 4]"

    code, out = run(capsys, "verify", "--range", "3..3", "--divisor", "g12", "--json")
    assert code == EXIT_MISMATCH
    [result] = json.loads(out)[0]["results"]
    assert not result["ok"] and family in result["inconsistent"]


def test_verify_reports_an_underdetermined_catalog(capsys, monkeypatch):
    import hypdiv.families as F

    *groups, (pencil,) = F.CATALOG[2]  # the f2ip1 pencil, without its member i = 0
    without_boundary_pencil = pencil._replace(indices=lambda g: range(1, (g - 1) // 2 + 1))
    monkeypatch.setitem(F.CATALOG, 2, (*groups, (without_boundary_pencil,)))
    code, out = run(capsys, "verify", "--range", "2..3", "--divisor", "g12")
    assert code == EXIT_MISMATCH
    lines = out.splitlines()
    assert lines[0] == "g12 g=2: MISMATCH"
    assert lines[1].startswith("  underdetermined system for g=2")
    assert lines[2].startswith("g12 g=3: ok")


def test_relations_dump(capsys):
    code, out = run(capsys, "relations", "--divisor", "w", "--genus", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "diagonal: 2·d = 6"
    assert lines[1] == "quadric_pencil: 1·d + 20·c = 1"
    assert any(line.startswith("identification[") for line in lines)


def test_relations_g2_g12_includes_two_point_single(capsys):
    code, out = run(capsys, "relations", "--divisor", "g12", "--genus", "2")
    assert code == EXIT_OK
    assert "two_point_single: 4·d + 1·a_0_2 = 1" in out


def test_families_dump_marks_auxiliaries(capsys):
    code, out = run(
        capsys,
        "families",
        "--genus",
        "4",
        "--family",
        "glued",
        "--i",
        "1",
        "--section",
        "horizontal",
        "--side",
        "low",
        "--marks",
        "1",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["target"] == {"divisor": "weierstrass", "num": 0, "den": 1}
    by_class = {d["class"]: d for d in record["degrees"]}
    assert by_class["eta_0_0"]["auxiliary"] is True
    assert by_class["delta_1_0"] == {"class": "delta_1_0", "num": -1, "den": 1, "auxiliary": False}


def test_families_diagonal_dump(capsys):
    code, out = run(capsys, "families", "--genus", "11", "--family", "diagonal")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["target"] == {"divisor": "weierstrass", "num": 24, "den": 1}
    assert record["degrees"] == [
        {"class": "psi", "num": 20, "den": 1, "auxiliary": False}
    ]


def usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_usage_errors_exit_two():
    assert usage_error("coeffs", "--divisor", "w", "--genus", "1") == EXIT_USAGE
    assert usage_error("verify", "--range", "5..2") == EXIT_USAGE
    assert usage_error("verify", "--range", "nonsense") == EXIT_USAGE
    assert usage_error("coeffs", "--divisor", "nope", "--genus", "3") == EXIT_USAGE
    assert usage_error("families", "--genus", "4", "--family", "glued") == EXIT_USAGE
    assert usage_error("families", "--genus", "2", "--family", "f2ip1", "--i", "1") == EXIT_USAGE
    assert usage_error() == EXIT_USAGE


def test_genus_above_limit_exits_two():
    too_large = str(cli.MAX_GENUS + 1)
    assert usage_error("coeffs", "--divisor", "w", "--genus", too_large) == EXIT_USAGE
    assert usage_error("verify", "--range", f"2..{too_large}") == EXIT_USAGE
    assert usage_error("relations", "--divisor", "g12", "--genus", "100000000") == EXIT_USAGE
    assert cli._genus(str(cli.MAX_GENUS)) == cli.MAX_GENUS


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# sha256 of `coeffs` stdout beyond the goldens' g <= 20: (divisor, genus, format, view)
COEFFS_SHA256 = {
    ("w", 999, "json", "formal"): "08857c002c46a707a6dbe40574fbee156e227aec0f2e93c27265577e7739613d",
    ("w", 999, "json", "canonical"): "7dafdfa0a60f2989e076a43d79b2e91813fb4ce901512e013a915b77d02e283b",
    ("w", 999, "csv", "formal"): "2ebbe5f20d0350e9d834ff97401f1b13606d53edef1e3f4665af8f606e68c67e",
    ("w", 999, "csv", "canonical"): "340473856736b5aa636a6e54f53c6da720df912496a7a1cf420815ab576880c9",
    ("w", 999, "latex", "formal"): "1381f210f65a4615f09b96064d84b1d924cf1d78222744c5c5e4becead3fd483",
    ("w", 999, "latex", "canonical"): "0f0bea0e38aa8e7f67a05ebffdb24fdd28ec5c81f71c33aa77cbda8001473ceb",
    ("g12", 999, "json", "formal"): "21ad27d1825036daa16cdfe0641736596aa4ad996938f1d1e9b06a7f76d714da",
    ("g12", 999, "json", "canonical"): "a8425b84e42f2c1024fdd05de33444e3f427c825f03c067ef02bff33d657f73a",
    ("g12", 999, "csv", "formal"): "b0b8fab00dab6c405202f1910a20f90604539b2c176a9fc98fdf897fbbdcf33a",
    ("g12", 999, "csv", "canonical"): "5b0e2cbf72734931ca005a64020f87959c4ba605d9f867a5b222540162bceb95",
    ("g12", 999, "latex", "formal"): "eb4ae3a3ad88ea52b51c4b02733aa19c4b88f98c496542596a4090538ab897ad",
    ("g12", 999, "latex", "canonical"): "05788e24c911c25ef98eebbf1dd4ed34ee7cb11d515fd02c0a797563eb576aef",
    ("w", 2000, "json", "formal"): "9516929f06ed4d626d1615c146143d057c001a075315a57d78e84e973861d2bf",
    ("w", 2000, "json", "canonical"): "965b47bbe0f7adac87f3608932c44200c861441c321429e6c4a3a9a6d7dddddf",
    ("w", 2000, "csv", "formal"): "d493d0e17462b6d2efe8ebbccf5e157e8a40d481be8e51e6e6b05d66f7325ac1",
    ("w", 2000, "csv", "canonical"): "1b39de79daee830916aa0a99a0981a277d0121765bc15846f18b9db5b325f06e",
    ("w", 2000, "latex", "formal"): "989de439880f0a002b1313db54c0b47e01cd8aa71c6944b1351b955acd55483d",
    ("w", 2000, "latex", "canonical"): "bb27b3cd0b605dffada4f5bbed0d72fb8a094951c4aa76a4f5c50eb647414212",
    ("g12", 2000, "json", "formal"): "4ddb128b3e4695ed50b4dfb534c729df46e275e42e53930d3b37106de5ab32bd",
    ("g12", 2000, "json", "canonical"): "b9c8b917ea546eee3db987c66035a251e30a1bb1f08e3caa404c8db3d04cd504",
    ("g12", 2000, "csv", "formal"): "d18dd99e8f132ba8e2c8e1a7b6b86d8a66ace14ff01145873e9ad6c6ff46d198",
    ("g12", 2000, "csv", "canonical"): "aa0dbcbd9acd0bfeb9357ffb1c9289af572697117aea1216e7c95efe4da2bca1",
    ("g12", 2000, "latex", "formal"): "9ac627e370204d12151748edfc1caa31837c07281a9612437d9ec0d558daac20",
    ("g12", 2000, "latex", "canonical"): "7daa6ea0a36df7e1c1c321ce19e03971f5bdab6b207eea5c025da70ffa5dc1c6",
}


@pytest.mark.parametrize("divisor, g, fmt, view", list(COEFFS_SHA256))
def test_coeffs_bytes_at_large_genus(capsys, divisor, g, fmt, view):
    argv = ["coeffs", "--divisor", divisor, "--genus", str(g), "--format", fmt, "--view", view]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == COEFFS_SHA256[divisor, g, fmt, view]


@pytest.mark.parametrize("divisor", ["w", "g12"])
@pytest.mark.parametrize("view", ["formal", "canonical"])
def test_solver_coeffs_bytes_at_large_genus(capsys, divisor, view):
    argv = ["coeffs", "--divisor", divisor, "--genus", "999", "--view", view, "--source", "solver"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == COEFFS_SHA256[divisor, 999, "json", view]


# (line count, sha256) of `relations` stdout beyond the goldens' g <= 20, captured before
# the assembly moved from solver to families: both parities, and the genus limit
RELATIONS_SHA256 = {
    ("w", 999): (1999, "6584583e18d559706ae220ee5766de02236c3dcfd242ab084e1acc1d1fe58e08"),
    ("w", 1000): (2003, "0ba7ef83dfd89af26efaed61435f5d875c5f431451129f090f0b3216dab4ae5a"),
    ("w", 2000): (4003, "f72caa1b4259efd3511207fd3b59c17b9d1b1f06a5f3f05c8ff425424fe4b7a3"),
    ("g12", 999): (3498, "83217112d05c2ff6683343228cca671566977b63a0045acd289c5a3b8c0f51b9"),
    ("g12", 1000): (3504, "cbb3a39f05bbe05be8cc52080aa12b99699a4c19cbabb31e6ba6f55373a5c978"),
    ("g12", 2000): (7004, "31360ac5b853fc330c32acf75427443b4e03c1335fe9bda6f07c65605bc73d2a"),
}


@pytest.mark.parametrize("divisor, g", list(RELATIONS_SHA256))
def test_relations_bytes_at_large_genus(capsys, divisor, g):
    code, out = run(capsys, "relations", "--divisor", divisor, "--genus", str(g))
    assert code == EXIT_OK
    data = out.encode()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == RELATIONS_SHA256[divisor, g]


def test_coeffs_json_writer_is_render_json():
    from hypdiv import closedform
    from hypdiv.families import G12, WEIERSTRASS

    for g in range(2, 21):
        for target in (WEIERSTRASS, G12):
            for view in ("formal", "canonical"):
                record = cli.output_record(g, target, view, closedform.closed_form(g, target))
                assert cli.render_coeffs_json(record) == render_json(record), (g, target, view)
    zero = cli.output_record(3, G12, "formal", DivisorExpression(3, 2, {}))
    assert cli.render_coeffs_json(zero) == render_json(zero)  # "terms": []


# a value the parser accepts for each option of ``families`` after --genus and --family
OPTION_VALUES = {"i": "1", "section": "horizontal", "side": "low", "marks": "1", "kind": "single"}


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_a_family_refuses_an_option_it_does_not_take(capsys, family):
    _, _, read, _ = cli.COMMANDS["families"]
    dests = set(read) - {"genus", "family"}
    assert dests == OPTION_VALUES.keys()
    options = cli.FAMILIES[family][0]
    taken = [f"--{name}={OPTION_VALUES[name]}" for name in options]
    code, _ = run(capsys, "families", "--genus", "7", "--family", family, *taken)
    assert code == EXIT_OK  # its own options alone pass
    for name in OPTION_VALUES.keys() - set(options):
        argv = ["families", "--genus", "7", "--family", family, *taken]
        argv.append(f"--{name}={OPTION_VALUES[name]}")
        assert usage_error(*argv) == EXIT_USAGE, argv
        assert f"--{name} is not taken by family {family!r}" in capsys.readouterr().err


def outcome(capsys, *argv):
    """(exit status, stdout, stderr) of ``main``, whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# command lines argparse accepted, with the exit status and the sha256 of the stdout they
# had then: an option as a prefix or with "=", the last of a repeated option, a flag as a
# prefix, and a value converted before its choices are checked
ACCEPTED = [
    (["coeffs", "--divisor=w", "--gen", "3", "--form", "csv"], 0,
     "d976650048a8d8196ad9187b77ebb30be68738c0e1cd32e5f8bf511417f8da44"),
    (["coeffs", "--divisor", "w", "--genus", "3", "--genus", "4", "--format", "csv"], 0,
     "3908759ccd83fb8cf9342f53c2892a46ab0f81cb8efab100138768f1f9b4ab97"),
    (["verify", "--range", "2..3", "--js"], 0,
     "9d8fbd678cf1adcfa55e71d4d2137e0cba31ef2e85dbd4035abc1e05ba5cfd2c"),
    (["families", "--genus", "4", "--family", "quadric_pencil", "--marks", "01"], 0,
     "8bb5455be9bff30be12c38d5b63676d3c590a7ce9a06061e59af6e05f69989e1"),
    # "-1" is read as the value of --i, and evaluate refuses it: nothing on stdout
    (["families", "--genus", "4", "--family", "ruling", "--i", "-1", "--side", "low"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]
# each spelled out in full: the same bytes
SPELLED_OUT = {
    0: ["coeffs", "--divisor", "w", "--genus", "3", "--format", "csv"],
    1: ["coeffs", "--divisor", "w", "--genus", "4", "--format", "csv"],
    2: ["verify", "--range", "2..3", "--json"],
    3: ["families", "--genus", "4", "--family", "quadric_pencil", "--marks", "1"],
}
USAGE_ERRORS = [
    [],  # no command
    ["coeff", "--divisor", "w", "--genus", "3"],  # no such command: commands take no prefix
    ["coeffs", "--divisor", "w", "--genus", "3", "--bogus"],  # no such option
    ["families", "--genus", "4", "--family", "diagonal", "--s", "low"],  # --section or --side
    ["coeffs", "--divisor", "w", "--genus"],  # no value
    ["coeffs", "--divisor", "w", "--genus", "x"],
    ["coeffs", "--divisor", "x", "--genus", "3"],  # not a choice
]
# the options that the help of each command names
OPTIONS = {
    "coeffs": ["--divisor", "--genus", "--format", "--view", "--source"],
    "verify": ["--range", "--divisor", "--json"],
    "relations": ["--divisor", "--genus"],
    "families": ["--genus", "--family", "--i", "--section", "--side", "--marks", "--kind"],
}


@pytest.mark.parametrize("case", range(len(ACCEPTED)))
def test_the_parser_accepts_what_argparse_accepted(capsys, case):
    argv, status, sha256 = ACCEPTED[case]
    code, out, err = outcome(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (status, sha256), err
    if case in SPELLED_OUT:
        assert outcome(capsys, *SPELLED_OUT[case])[:2] == (code, out)


def test_version_prints_the_version_alone(capsys):
    assert outcome(capsys, "--version") == (EXIT_OK, "hypdiv 0.1.0\n", "")


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_the_parser_refuses_what_argparse_refused(capsys, argv):
    code, out, err = outcome(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: hypdiv") and "error: " in err, err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command_or_every_option_of_one(capsys, flag):
    code, out, _ = outcome(capsys, flag)
    assert code == EXIT_OK and all(command in out for command in OPTIONS), out
    for command, options in OPTIONS.items():
        code, out, _ = outcome(capsys, command, flag)
        assert code == EXIT_OK and all(option in out for option in options), (command, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--divisor", "w", "--genus", "1"],
        ["verify", "--range", "5..2"],
        ["families", "--genus", "4", "--family", "glued"],  # found by the command
        ["families", "--genus", "4", "--family", "ruling", "--i", "-1", "--side", "low"],
    ],
    ids=" ".join,
)
def test_a_usage_error_is_written_under_its_command(capsys, argv):
    # as the error of a command line without its required options, which the parser finds
    *usage, message = outcome(capsys, *argv)[2].splitlines()
    *parsed, _ = outcome(capsys, argv[0])[2].splitlines()
    assert usage == parsed and message.startswith(f"hypdiv {argv[0]}: error: "), message
