"""Records: immutable where they are values, no shared defaults, and a
``hypdiv`` process that never loads ``dataclasses`` or ``inspect``."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hypdiv
from hypdiv import closedform as CF
from hypdiv import exactlin
from hypdiv import families as F
from hypdiv import solver as S
from hypdiv.basis import DomainError
from hypdiv.cli import render_relation
from lattice_oracle import SurfaceLattice

SOURCE = Path(hypdiv.__file__).resolve().parents[1]

COMMANDS = [
    ["verify", "--range", "2..4"],
    ["relations", "--divisor", "g12", "--genus", "6"],
    ["coeffs", "--divisor", "g12", "--genus", "6", "--source", "solver"],
    ["families", "--genus", "6", "--family", "f2ip1", "--i", "1"],
]

SCRIPT = """
import contextlib, io, json, sys
from hypdiv import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""


def test_cli_process_loads_neither_dataclasses_nor_inspect():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        # the caller's environment, so PYTHONDONTWRITEBYTECODE reaches the child too
        env=dict(os.environ, PYTHONPATH=str(SOURCE)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []


def test_value_records_are_immutable():
    lattice = SurfaceLattice(2)
    records = [
        (F.evaluate(F.TEMPLATES["diagonal", 1], 3), "target_degree"),
        (CF.closed_form(3, F.WEIERSTRASS), "terms"),
        (lattice.curve_class(1, 1), "coefficients"),
        (lattice, "exceptional_count"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def _mutable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return True
    return False


def test_records_built_without_defaults_share_no_mutable_object():
    constructors = [
        lambda: CF.GenusResult(2, True, [], 1, 1, 0, {}),
        lambda: CF.VerificationReport(F.G12, 2, 3),
        lambda: S.CoefficientReport(2, F.G12, {}, {}, 0, 0, []),
    ]
    for build in constructors:
        a, b = build(), build()
        assert a._field_defaults
        for name in a._field_defaults:
            x, y = getattr(a, name), getattr(b, name)
            assert x is not y or not _mutable(x), (type(a).__name__, name)
    assert "params" not in F.DegreeVector._field_defaults
    assert exactlin.LinearSystem(("x",)).rows is not exactlin.LinearSystem(("x",)).rows


def test_linear_system_appends_to_its_own_row_list():
    rows = [({"x": 1}, 1)]
    system = exactlin.LinearSystem(["x"], rows)
    system.add_row({"x": 2}, 3)
    assert rows == [({"x": 1}, 1)] and system.rows == [({"x": 1}, 1), ({"x": 2}, 3)]
    system.add_row({"x": 1}, 1)  # later rows go to the system's copy as well
    assert len(rows) == 1 and len(system.rows) == 3


def test_relation_drops_zero_coefficients():
    coeffs = {"d": 0, "c": 2, "a_1_0": 0, "b_1_0": -1}
    relation = F.Relation(coeffs, 3, "p")
    assert relation.coeffs == {"c": 2, "b_1_0": -1} and list(relation.coeffs) == ["c", "b_1_0"]
    assert coeffs["d"] == 0 and len(coeffs) == 4  # the caller's dict is left alone
    assert relation == F.Relation({"c": 2, "b_1_0": -1}, 3, "p") != F.Relation({"c": 2}, 3, "p")
    assert render_relation(relation) == "p: 2·c - 1·b_1_0 = 3"
    with pytest.raises(DomainError):
        F.Relation({"d": 0}, Fraction(0), "empty")
    with pytest.raises(AttributeError):
        relation.other = 1


def test_relation_equals_only_a_relation_and_reads_back_from_its_repr():
    for relation in F.assemble_system(3, F.G12):
        fields = (relation.coeffs, relation.rhs, relation.provenance)
        assert relation.__eq__(fields) is NotImplemented and relation != fields
        assert eval(repr(relation), {"Relation": F.Relation}) == relation


def _two_pass_render(relation):
    # the renderer that cli.render_relation replaced, kept as its reference
    (symbol, value), *rest = relation.coeffs.items()
    signed = [f"- {-v}·{s}" if v < 0 else f"+ {v}·{s}" for s, v in rest]
    return f"{relation.provenance}: {' '.join([f'{value}·{symbol}', *signed])} = {relation.rhs}"


@pytest.mark.parametrize(
    "coeffs, rhs, line",
    [
        ({"c": -3, "d": 2}, 0, "p: -3·c + 2·d = 0"),  # a negative first coefficient
        ({"d": 7}, 1, "p: 7·d = 1"),  # a single term
        ({"a_1_0": -1}, -4, "p: -1·a_1_0 = -4"),
        ({"d": 1, "c": -1, "b_0_1": 1}, -2, "p: 1·d - 1·c + 1·b_0_1 = -2"),  # ±1, rhs < 0
        ({"b_2_2": -1, "b_2_0": 1}, 0, "p: -1·b_2_2 + 1·b_2_0 = 0"),
        ({"d": 12, "c": -40, "a_3_1": -5, "b_2_1": 1, "a_0_2": 9}, -123,
         "p: 12·d - 40·c - 5·a_3_1 + 1·b_2_1 + 9·a_0_2 = -123"),
    ],
)
def test_relation_renders_as_its_two_pass_reference(coeffs, rhs, line):
    relation = F.Relation(coeffs, rhs, "p")
    assert render_relation(relation) == _two_pass_render(relation) == line
