"""What a ``hypdiv`` process loads, and how a command writes its output.

The module tests run a fresh interpreter, since this one has long since
imported every submodule.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypdiv
from hypdiv import cli

SRC = Path(hypdiv.__file__).resolve().parent.parent

# Run ``cli.main`` on the arguments, then report on stderr the modules that
# importing and running hypdiv added to those the interpreter started with.
_LOADED = """
import sys
before = set(sys.modules)
from hypdiv.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stderr.write("\\n" + " ".join(sorted(set(sys.modules) - before)))
"""


def fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )


def loaded_by(*args):
    return set(fresh(_LOADED, *args).stderr.splitlines()[-1].split())


SOLVING = {"hypdiv.closedform", "hypdiv.exactlin", "hypdiv.surfcalc"}


def test_version_loads_only_the_parser_modules():
    loaded = loaded_by("--version")
    assert {"hypdiv.cli", "hypdiv.basis", "hypdiv.families"} <= loaded
    assert not loaded & (SOLVING | {"hypdiv.solver", "json", "csv"}), loaded


def test_relations_loads_no_solving_module():
    loaded = loaded_by("relations", "--divisor", "g12", "--genus", "5")
    assert "hypdiv.solver" in loaded
    assert not loaded & SOLVING, loaded


def test_only_commands_that_build_rationals_load_fractions():
    rational = {"fractions", "decimal", "numbers"}
    for argv in (["--version"], ["relations", "--divisor", "g12", "--genus", "5"]):
        assert not loaded_by(*argv) & rational, argv
    assert {"fractions", "decimal"} <= loaded_by("coeffs", "--divisor", "g12", "--genus", "5")


def test_importing_the_package_loads_no_submodule():
    code = "import sys, hypdiv; print(sorted(m for m in sys.modules if m.startswith('hypdiv.')))"
    assert fresh(code).stdout.strip() == "[]"


def test_public_names_resolve_to_their_submodules_objects():
    code = """
import importlib, hypdiv
assert set(hypdiv.__all__) == set(hypdiv._EXPORTS) | {"__version__"}
for name, module in hypdiv._EXPORTS.items():
    assert getattr(hypdiv, name) is getattr(importlib.import_module("hypdiv." + module), name), name
assert hypdiv.solver is importlib.import_module("hypdiv.solver")
star = {}
exec("from hypdiv import *", star)
assert all(star[name] is getattr(hypdiv, name) for name in hypdiv.__all__)
assert set(hypdiv.__all__) <= set(dir(hypdiv))
print("ok")
"""
    assert fresh(code).stdout.strip() == "ok"


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hypdiv.nope  # noqa: B018


class CountingStringIO(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv, lines, sha256",
    [
        (
            ["relations", "--divisor", "g12", "--genus", "50"],
            179,
            "12dba6d3cdc39ef2c48936be21f3121127f89d3212511c5ead8a4162b3abd2c9",
        ),
        (
            ["verify", "--range", "2..6"],
            12,
            "f85e8954abd8980668493349f75455a232f023ff5911248e4dfa7065c9373395",
        ),
    ],
    ids=["relations", "verify"],
)
def test_command_writes_its_output_at_once(argv, lines, sha256):
    out = CountingStringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    assert out.writes <= 2
    data = out.getvalue().encode("utf-8")
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha256
