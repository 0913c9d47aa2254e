"""Byte-level pins of ``relations --divisor g12`` at every genus the benchmark checks.

The digests are read from ``perfbench/golden_relations.json`` (line count
and sha256 of the UTF-8 stdout), which the benchmark's relations-large
workload checks its jobs against; this test never writes it.  The file
covers the workload's band 980..1020, both parities (the parity of g
decides the top boundary index and its identification rows), plus the
half-size genera.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hypdiv import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_relations.json"


GENERA = sorted(map(int, json.loads(GOLDEN.read_text())))


@pytest.mark.parametrize("genus", GENERA)
def test_relations_output_matches_benchmark_golden(genus):
    golden = json.loads(GOLDEN.read_text())[str(genus)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["relations", "--divisor", "g12", "--genus", str(genus)])
    assert code == cli.EXIT_OK
    stdout = out.getvalue().encode("utf-8")
    assert stdout.count(b"\n") == golden["lines"]
    assert hashlib.sha256(stdout).hexdigest() == golden["sha256"]
