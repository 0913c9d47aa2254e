"""Byte-level pins of ``relations --divisor g12`` at two large genera.

The digests are read from ``perfbench/golden_relations.json`` (line count
and sha256 of the UTF-8 stdout), which the benchmark's relations-large
workload checks its jobs against; this test never writes it.  One genus
is odd and one even, since the parity of g decides the top boundary
index and its identification rows.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hypdiv import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_relations.json"


@pytest.mark.parametrize("genus", [1001, 490])
def test_relations_output_matches_benchmark_golden(genus):
    golden = json.loads(GOLDEN.read_text())[str(genus)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["relations", "--divisor", "g12", "--genus", str(genus)])
    assert code == cli.EXIT_OK
    stdout = out.getvalue().encode("utf-8")
    assert stdout.count(b"\n") == golden["lines"]
    assert hashlib.sha256(stdout).hexdigest() == golden["sha256"]
