"""What a ``hypdiv`` process loads, and how a command writes its output.

The module tests run a fresh interpreter, since this one has long since
imported every submodule.
"""

import contextlib
import hashlib
import itertools
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hypdiv
from hypdiv import cli
from hypdiv import families as F

SRC = Path(hypdiv.__file__).resolve().parent.parent

# Run ``cli.main`` on the arguments, then report on stderr its exit status and the
# modules that importing and running hypdiv added to those the interpreter started with.
_LOADED = """
import sys
before = set(sys.modules)
from hypdiv.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
sys.stderr.write(f"\\n{status} " + " ".join(sorted(set(sys.modules) - before)))
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


def status_and_loaded(*args):
    status, *loaded = fresh(_LOADED, *args).stderr.splitlines()[-1].split()
    return int(status), set(loaded)


def loaded_by(*args):
    return status_and_loaded(*args)[1]


SOLVING = {"hypdiv.closedform", "hypdiv.exactlin", "hypdiv.surfcalc"}


# each exits before a command runs: (arguments, exit status)
PARSER_ONLY = [
    (["--version"], 0),
    (["--help"], 0),
    (["coeffs", "--divisor", "w", "--genus", "1"], 2),
    (["verify", "--range", "5..2"], 2),
    (["relations", "--divisor", "w", "--genus", "1"], 2),
    (["families", "--genus", "1", "--family", "diagonal"], 2),
    (["families", "--genus", "4", "--family", "glued"], 2),  # --i, --section, ... missing
    (["families", "--genus", "5", "--family", "diagonal", "--i", "3"], 2),  # not its option
]


def test_version_loads_only_the_parser_modules():
    # the parser, --version, --help and every usage error compile no catalog module
    for argv, status in PARSER_ONLY:
        got, loaded = status_and_loaded(*argv)
        assert got == status, argv
        assert {m for m in loaded if m.startswith("hypdiv.")} == {"hypdiv.cli"}, (argv, loaded)
        assert not loaded & {"json", "csv"}, (argv, loaded)


# argparse and what it imports: no hypdiv process loads them
PARSER_MODULES = {"argparse", "gettext", "locale", "textwrap"}


@pytest.mark.parametrize(
    "argv, status",
    [
        *PARSER_ONLY[:3],
        (["coeffs", "--divisor", "g12", "--genus", "5"], 0),
        (["verify", "--range", "2..3", "--json"], 0),
        (["relations", "--divisor", "w", "--genus", "5"], 0),
        (["families", "--genus", "5", "--family", "diagonal"], 0),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_no_process_loads_a_parser_module(argv, status):
    got, loaded = status_and_loaded(*argv)
    assert got == status, argv
    assert not loaded & PARSER_MODULES, (argv, loaded & PARSER_MODULES)


def _family_keys():
    """(family, options, TEMPLATES key) for every --family and choice of its options."""
    _, _, choices, _ = cli.COMMANDS["families"]
    assert tuple(cli.FAMILIES) == choices["family"]
    for family, (names, key) in cli.FAMILIES.items():
        # --i has no choices: any int stands for it
        for values in itertools.product(*(choices[name] if name != "i" else [1] for name in names)):
            options = dict(zip(names, values))
            yield family, options, key(SimpleNamespace(**options))


def test_the_parser_spells_the_catalog_names():
    # cli writes these names as literals, so that its module level imports no catalog
    _, _, options, _ = cli.COMMANDS["families"]
    assert options["section"] == (F.HORIZONTAL, F.DIAGONAL)
    assert options["side"] == (F.LOW, F.HIGH)
    assert cli.DIVISOR_NAMES == {"w": F.WEIERSTRASS, "g12": F.G12}
    assert list(cli._LATEX_TARGET) == [F.WEIERSTRASS, F.G12]
    for family, chosen, key in _family_keys():  # each route names a template
        assert key in F.TEMPLATES, (family, chosen, key)


def test_every_template_has_a_route_on_the_command_line():
    # a template added to the catalog without a --family route fails here
    assert set(F.TEMPLATES) - {key for *_, key in _family_keys()} == set()


def test_closed_form_coeffs_load_no_solving_module():
    loaded = loaded_by("coeffs", "--divisor", "g12", "--genus", "5")
    assert "hypdiv.closedform" in loaded
    assert not loaded & {"hypdiv.solver", "hypdiv.exactlin"}, loaded


@pytest.mark.parametrize("source", ["closed", "solver"])
@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_coeffs_loads_no_json(fmt, source):
    # coeffs writes its json and csv itself; json serves verify --json and families
    argv = ["coeffs", "--divisor", "g12", "--genus", "6", "--format", fmt, "--source", source]
    loaded = loaded_by(*argv)
    assert not {m for m in loaded if m.split(".")[0] in ("json", "csv")}, loaded


def test_relations_loads_no_solving_module():
    # the dump is catalog work: families assembles it, and solver is never compiled
    loaded = loaded_by("relations", "--divisor", "g12", "--genus", "5")
    assert {"hypdiv.basis", "hypdiv.families"} <= loaded
    assert not loaded & (SOLVING | {"hypdiv.solver"}), loaded
    from hypdiv import solver

    assert hypdiv.assemble_system is solver.assemble_system is F.assemble_system


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


def test_every_public_name_is_listed_by_dir():
    assert set(hypdiv.__all__) <= set(dir(hypdiv))


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
