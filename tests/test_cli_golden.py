"""Byte-level pins of the CLI output: one sha256 per invocation, g = 2..20.

Every invocation runs in-process through ``cli.main``.  When an output
change is intended, regenerate the pins with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hypdiv import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
GENERA = range(2, 21)


def family_invocations(g):
    base = ["families", "--genus", str(g), "--family"]
    yield base + ["diagonal"]
    for marks in ("1", "2"):
        yield base + ["quadric_pencil", "--marks", marks]
    for i in range(1, g // 2 + 1):
        for section in ("horizontal", "diagonal"):
            for side in ("low", "high"):
                for marks in ("1", "2"):
                    yield base + [
                        "glued", "--i", str(i), "--section", section, "--side", side,
                        "--marks", marks,
                    ]
        for side in ("low", "high"):
            yield base + ["ruling", "--i", str(i), "--side", side]
    for kind in ("single", "weierstrass_involution"):
        yield base + ["two_point", "--kind", kind]
    for i in range(0, (g - 1) // 2 + 1):
        yield base + ["f2ip1", "--i", str(i)]


def invocations():
    for g in GENERA:
        for divisor in ("w", "g12"):
            coeffs = ["coeffs", "--divisor", divisor, "--genus", str(g)]
            for view in ("formal", "canonical"):
                for source in ("closed", "solver"):
                    yield coeffs + ["--format", "json", "--view", view, "--source", source]
                for fmt in ("csv", "latex"):
                    yield coeffs + ["--format", fmt, "--view", view]
            yield ["relations", "--divisor", divisor, "--genus", str(g)]
        yield from family_invocations(g)
    yield ["verify", "--range", "2..20", "--divisor", "both", "--json"]


def digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def digests():
    return {" ".join(argv): digest(argv) for argv in invocations()}


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = digests()
    assert sorted(actual) == sorted(golden)
    changed = [argv for argv, sha in golden.items() if actual[argv] != sha]
    assert not changed, f"{len(changed)} invocations changed output, e.g. {changed[:3]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
