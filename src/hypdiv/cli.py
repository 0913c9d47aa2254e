"""Command-line front end: compute, verify, and export coefficient tables.

Every line a command prints is formatted here: the modules it runs return data.  Rationals are
serialized as integer (numerator, denominator) pairs, never as decimals.  Exit status: 0 success,
1 verification mismatch, 2 usage error (a genus above ``MAX_GENUS`` too).  ``coeffs`` has one
record path: :func:`_record` builds a formal or canonical table from {unknown: value}, and
:func:`render_latex` pairs its ``basis_order`` by position with the labels of its view;
:func:`render_coeffs_json` writes it as :func:`render_json` does.

:func:`main` reads the command line against :data:`COMMANDS`: an option in full, as a unique
prefix (``--div w``) or as ``--option=value``; of a repeated one the last value, converted before
its choices are checked (``--marks 01`` is 1).  :func:`usage` writes the help and every usage
error, the parser's or a command's.  The choices are literals (a test pins them to the catalog),
so the module imports no catalog; each command imports what it runs and writes its output once.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import __version__

DIVISOR_NAMES = {"w": "weierstrass", "g12": "g12"}  # --divisor -> families.WEIERSTRASS, G12

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# about twice the largest genus the benchmark workloads use (1020)
MAX_GENUS = 2000


def _fraction_pair(value: int | Fraction | None) -> dict | None:
    return None if value is None else {"num": value.numerator, "den": value.denominator}


def output_record(g: int, target: str, view: str, expr: DivisorExpression) -> dict:
    """JSON-serializable coefficient table of ``expr``, a class on the ambient of (g, target).
    Refused: an ``expr`` that is no DivisorExpression with a dict of terms (TypeError), one made
    at another (g, n) and, term by term, a coefficient that is not rational (TypeError), then a
    label that ``basis.validate`` refuses (DomainError), even at 0."""
    from numbers import Rational

    from . import basis as B
    from .families import marked_points

    n = marked_points(target)
    if not isinstance(expr, B.DivisorExpression) or not isinstance(expr.terms, dict):
        raise TypeError(f"a record is written from a DivisorExpression with dict terms: {expr!r}")
    if (expr.g, expr.n) != (g, n):
        raise B.DomainError(f"a class on (g, n) = {expr.g, expr.n} is no {target} record at g={g}")
    for e, coeff in expr.terms.items():
        if type(coeff) is bool or not isinstance(coeff, Rational):
            raise TypeError(f"coefficient of {e!r} must be rational, got {coeff!r}")
        B.validate(e, g, n)
    return _record(g, target, view, lambda e: expr.terms.get(e, 0))


def _record(g: int, target: str, view: str, coefficient) -> dict:
    """The table of the class with ``coefficient(e)`` on each formal label e; the canonical view
    adds each twin's to its representative's.  It checks the view, and output_record the terms."""
    from . import basis as B
    from .families import marked_points

    n = marked_points(target)
    if view not in ("formal", "canonical"):
        raise B.DomainError(f"no view {view!r}: a record's view is 'formal' or 'canonical'")
    pairs = B.identified_pairs(g, n)
    values = {e: coefficient(e) for e in B.formal_elements(g, n)}
    for twin, e in pairs if view == "canonical" else ():
        values[e] += values.pop(twin)
    names = [e.name(n) for e in values]
    named = zip(names, values.values())
    terms = [{"class": s, "num": v.numerator, "den": v.denominator} for s, v in named if v]
    identified = [f"{t.name(n)} = {c.name(n)}" for t, c in pairs]
    metadata = {"tool_version": __version__, "basis_order": names, "identified": identified}
    return {"genus": g, "divisor": target, "view": view, "terms": terms, "metadata": metadata}


def render_json(record: dict) -> str:
    import json

    return json.dumps(record, indent=2, sort_keys=False)


def render_coeffs_json(record: dict) -> str:
    """``render_json`` of an ``output_record``, byte for byte, without the json module: one
    string per term, and no string in a record needs escaping."""
    meta, keys = record["metadata"], ("basis_order", "identified")
    term = '    {\n      "class": "%s",\n      "num": %d,\n      "den": %d\n    }'
    terms = ",\n".join([term % (t["class"], t["num"], t["den"]) for t in record["terms"]])
    terms = f"[\n{terms}\n  ]" if terms else "[]"
    order, identified = (",\n".join(f'      "{s}"' for s in meta[k]) for k in keys)
    return (
        f'{{\n  "genus": {record["genus"]},\n  "divisor": "{record["divisor"]}",\n'
        f'  "view": "{record["view"]}",\n  "terms": {terms},\n  "metadata": {{\n'
        f'    "tool_version": "{meta["tool_version"]}",\n    "basis_order": [\n{order}\n    ],\n'
        f'    "identified": [\n{identified}\n    ]\n  }}\n}}'
    )


def parse_record(text: str) -> dict:
    import json

    return json.loads(text)


def render_csv(record: dict) -> str:
    """What ``csv.writer`` writes for the terms under a header; no field needs quoting."""
    rows = [f'{t["class"]},{t["num"]},{t["den"]}\r\n' for t in record["terms"]]
    return "".join(["class,numerator,denominator\r\n", *rows])


_LATEX_TARGET = dict(weierstrass=r"\bigl[\mathcal{W}\bigr]", g12=r"\bigl[\mathcal{G}^{1}_{2}\bigr]")


def _latex_term(num: int, den: int, symbol: str) -> str:
    """One summand with its sign in front, " + 3\\psi"; a coefficient 1 is left unwritten."""
    magnitude = rf"\tfrac{{{abs(num)}}}{{{den}}}" if den > 1 else "" if abs(num) == 1 else abs(num)
    return f" {'-' if num < 0 else '+'} {magnitude}{symbol}"


def render_latex(record: dict) -> str:
    from . import basis as B
    from .families import marked_points

    g, view, n = record["genus"], record["view"], marked_points(record["divisor"])
    order = record["metadata"]["basis_order"]
    labels = (B.formal_elements if view == "formal" else B.enumerate_basis)(g, n)
    if view not in ("formal", "canonical") or len(order) != len(labels):
        raise B.DomainError(f"{len(order)} names for the {len(labels)} labels of view {view!r}")
    latex = {s: e.latex(n) for s, e in zip(order, labels)}
    terms = "".join(_latex_term(t["num"], t["den"], latex[t["class"]]) for t in record["terms"])
    body = ("" if terms[1] == "+" else "-") + terms[3:] if terms else "0"  # no leading " + "
    lhs = _LATEX_TARGET[record["divisor"]]
    return f"% genus {g}, view {view}\n\\[\n{lhs} = {body}\n\\]"


def render_relation(relation: Relation) -> str:
    """``provenance: c·x + c·y - c·z = rhs``; the first coefficient carries its own sign."""
    terms = iter(relation.coeffs.items())
    symbol, value = next(terms)
    signed = "".join([f" - {-v}·{s}" if v < 0 else f" + {v}·{s}" for s, v in terms])
    return f"{relation.provenance}: {value}·{symbol}{signed} = {relation.rhs}"


RENDERERS = {"json": render_coeffs_json, "csv": render_csv, "latex": render_latex}


def verification_record(report) -> dict:
    """JSON-serializable form of a ``closedform.VerificationReport``."""
    results = []
    for r in report.results:
        result = {k: getattr(r, k) for k in ("g", "ok", "rank", "n_unknowns", "n_redundant")}
        result["auxiliaries"] = {k: _fraction_pair(v) for k, v in r.auxiliaries.items()}
        result["mismatches"] = [
            {"class": name, "solver": _fraction_pair(got), "closed": _fraction_pair(want)}
            for name, got, want in r.mismatches
        ]
        if r.error is not None:
            result.update(error=r.error, inconsistent=r.inconsistent)
        results.append(result)
    record = {k: getattr(report, k) for k in ("target", "g_min", "g_max", "ok")}
    return {**record, "results": results}


def _genus(text: str) -> int:
    g = int(text)
    if not 2 <= g <= MAX_GENUS:
        raise ValueError(f"must be in 2..{MAX_GENUS}, got {g}")
    return g


def _parse_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    if not dots or _genus(lo) > _genus(hi):
        raise ValueError(f"{text!r} is no range A..B of genera with A <= B")
    return int(lo), int(hi)


def _write_lines(lines) -> None:
    """Write each line, newline-terminated, to standard output in one call."""
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_coeffs(args) -> int:
    g, target = args.genus, DIVISOR_NAMES[args.divisor]
    if args.source == "solver":
        from . import solver

        values = solver.solve_coefficients(g, target).coefficients
    else:
        from . import closedform

        values = closedform.closed_form_values(g, target)
    from .families import unknown

    record = _record(g, target, args.view, lambda e: values[unknown(e)])
    _write_lines([RENDERERS[args.format](record)])
    return EXIT_OK


def _verify_lines(reports):
    """The text report of ``cmd_verify``, line by line, each target's summary line last."""
    for report in reports:
        for r in report.results:
            if r.error is not None:  # the solver refused the system: no counts, no mismatches
                detail = f"inconsistent: {', '.join(r.inconsistent)}" if r.inconsistent else r.error
                yield from (f"{report.target} g={r.g}: MISMATCH", f"  {detail}")
                continue
            status = "ok" if r.ok else "MISMATCH"
            counts = f"rank {r.rank}/{r.n_unknowns}, {r.n_redundant} redundant"
            yield f"{report.target} g={r.g}: {status} ({counts})"
            for name, got, want in r.mismatches:
                yield f"  {name}: solver={got} closed={want}"
        failed = [r.g for r in report.results if not r.ok]
        result = f"mismatches at g in {failed}" if failed else "all match"
        yield f"{report.target}: {len(report.results)} genera checked, {result}"


def cmd_verify(args) -> int:
    from . import closedform

    targets = DIVISOR_NAMES.values() if args.divisor == "both" else [DIVISOR_NAMES[args.divisor]]
    reports = [closedform.verify_range(*args.range, t) for t in targets]
    if args.json:
        _write_lines([render_json([verification_record(r) for r in reports])])
    else:
        _write_lines(_verify_lines(reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def cmd_relations(args) -> int:
    from .families import assemble_system

    _write_lines(map(render_relation, assemble_system(args.genus, DIVISOR_NAMES[args.divisor])))
    return EXIT_OK


# --family -> (the options it takes after the genus, its families.TEMPLATES key from them)
FAMILIES = {
    "diagonal": ((), lambda a: ("diagonal", 1)),
    "quadric_pencil": (("marks",), lambda a: ("quadric_pencil", a.marks)),
    "glued": (("i", "section", "side", "marks"), lambda a: (f"glued_{a.section}_{a.side}", a.marks)),
    "two_point": (("kind",), lambda a: ("two_point_" + a.kind.split("_")[0], 2)),
    "ruling": (("i", "side"), lambda a: (f"ruling_{a.side}", 2)),
    "f2ip1": (("i",), lambda a: ("f2ip1", 2)),
}


def cmd_families(args) -> int:
    options, key = FAMILIES[args.family]
    for name in COMMANDS["families"][3]:  # every option a family may take, in its defaults
        if (getattr(args, name) is None) == (name in options):
            verb = "is required for" if name in options else "is not taken by"
            usage("families", f"--{name} {verb} family {args.family!r}")
    from . import families as F

    try:
        dv = F.evaluate(F.TEMPLATES[key(args)], args.genus, args.i)
    except F.DomainError as exc:
        usage("families", str(exc))
    degrees = [
        {"class": label.name(dv.n), **_fraction_pair(d), "auxiliary": F.is_auxiliary(label, dv.g)}
        for label, d in dv.degrees.items()
    ]
    record = {
        "family": dv.family,
        "params": dv.params,
        "ambient": {"g": dv.g, "n": dv.n},
        "target": {"divisor": dv.target, **_fraction_pair(dv.target_degree)},
        "degrees": degrees,
    }
    _write_lines([render_json(record)])
    return EXIT_OK


# command -> (its function, its help line, {option: its choices, or the function that reads its
# value (bool: a flag)}, {option: its value when left out}); every other option is required
COMMANDS = {
    "coeffs": (cmd_coeffs, "coefficient table of a divisor class", {
        "divisor": tuple(DIVISOR_NAMES), "genus": _genus, "format": ("json", "csv", "latex"),
        "view": ("formal", "canonical"), "source": ("closed", "solver"),
    }, {"format": "json", "view": "formal", "source": "closed"}),
    "verify": (cmd_verify, "check solver output against the closed forms", {
        "range": _parse_range, "divisor": (*DIVISOR_NAMES, "both"), "json": bool,
    }, {"divisor": "both", "json": False}),
    "relations": (cmd_relations, "dump the assembled relation system",
                  {"divisor": tuple(DIVISOR_NAMES), "genus": _genus}, {}),
    "families": (cmd_families, "dump one family's degree vector as JSON", {
        "genus": _genus, "family": tuple(FAMILIES), "i": int, "section": ("horizontal", "diagonal"),
        "side": ("low", "high"), "marks": (1, 2), "kind": ("single", "weierstrass_involution"),
    }, dict.fromkeys(("i", "section", "side", "marks", "kind"))),
}


def usage(command: str = "", error: str | None = None) -> None:
    """Write the usage line of ``command``, or of hypdiv before one, and exit: with ``error`` on
    stderr and status 2, or with the help on stdout and status 0."""
    words = ["[--version]", "{%s} ..." % ",".join(COMMANDS)]
    helps = [f"  {name:<10} {about}" for name, (_, about, _, _) in COMMANDS.items()]
    if command:  # each option with its choices, in brackets if it may be left out
        _, about, options, defaults = COMMANDS[command]
        words, helps = [], [about]
        for name, spec in options.items():
            shown = "{%s}" % ",".join(map(str, spec)) if type(spec) is tuple else name.upper()
            word = f"--{name}" if spec is bool else f"--{name} {shown}"
            words.append(f"[{word}]" if name in defaults else word)
    prog = f"hypdiv {command}".rstrip()
    line = " ".join([f"usage: {prog} [-h]", *words])
    if error is None:
        _write_lines([line, "", *helps])
        sys.exit(EXIT_OK)
    sys.stderr.write(f"{line}\n{prog}: error: {error}\n")
    sys.exit(EXIT_USAGE)


def main(argv=None) -> int:
    """Run the command that ``argv`` (``sys.argv[1:]`` if None) names, its options read against
    :data:`COMMANDS` as the module docstring says; help, the version and usage errors exit."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--version"]:
        _write_lines([f"hypdiv {__version__}"])
        sys.exit(EXIT_OK)
    if not argv or argv[0] not in COMMANDS:  # -h or --help asks for the help
        usage("", None if argv[:1] in (["-h"], ["--help"]) else f"no command in {argv}")
    run, _, options, defaults = COMMANDS[argv[0]]
    command, words, args = argv[0], iter(argv[1:]), dict(defaults)
    for word in words:
        key, eq, text = ("--help", "", "") if word == "-h" else word.partition("=")
        names = [name for name in (*options, "help") if f"--{name}".startswith(key)]
        if len(names) != 1:  # no option name is the prefix of another
            usage(command, f"{'ambiguous' if names else 'unrecognized'} argument: {word}")
        if names == ["help"]:
            usage(command)
        name, flag = names[0], options[names[0]] is bool
        args[name] = True if flag else text if eq else next(words, None)
        if args[name] is None or eq and flag:
            usage(command, f"argument --{name}: expected {'no' if flag else 'one'} argument")
    for name, spec in options.items():
        if name not in args:
            usage(command, f"the following arguments are required: --{name}")
        try:  # the last value given, converted, then checked against the choices
            if args[name] is not None:  # None: left out, where that may be
                value = args[name] = (spec if callable(spec) else type(spec[0]))(args[name])
                if not callable(spec) and value not in spec:
                    raise ValueError(f"invalid choice: {value!r} (choose from {str(spec)[1:-1]})")
        except ValueError as exc:
            usage(command, f"argument --{name}: {exc}")
    return run(SimpleNamespace(**args))


if __name__ == "__main__":
    sys.exit(main())
