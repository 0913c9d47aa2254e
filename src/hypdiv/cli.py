"""Command-line front end: compute, verify, and export coefficient tables.

Subcommands: ``coeffs``, ``verify``, ``relations``, ``families``.  Rationals are always
serialized as integer (numerator, denominator) pairs, never as decimals.  Exit status
contract: 0 success, 1 verification mismatch, 2 usage error (a genus above ``MAX_GENUS`` too).

``coeffs`` has one record path: :func:`_record` builds a formal or canonical table from
{unknown: value}; :func:`render_coeffs_json` writes it as :func:`render_json` does, without json,
and :func:`render_latex` pairs its ``basis_order`` by position with the labels of its view.

The module level imports argparse and nothing of the catalog; the parser spells
its choices as literals, which a test pins to :mod:`hypdiv.families`.  Each command
checks its arguments, then imports the modules it runs, so ``--version``, ``--help``
and a usage error load no other hypdiv module, and writes its output in one call.
"""

from __future__ import annotations

import argparse
import sys

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
    comment = f"% genus {g}, view {view}"
    return f"{comment}\n\\[\n{lhs} = {body}\n\\]"


RENDERERS = {"json": render_coeffs_json, "csv": render_csv, "latex": render_latex}


def degree_vector_record(dv: DegreeVector) -> dict:
    from .families import is_auxiliary

    degrees = [
        {"class": label.name(dv.n), **_fraction_pair(d), "auxiliary": is_auxiliary(label, dv.g)}
        for label, d in dv.degrees.items()
    ]
    return {
        "family": dv.family,
        "params": dv.params,
        "ambient": {"g": dv.g, "n": dv.n},
        "target": {"divisor": dv.target, **_fraction_pair(dv.target_degree)},
        "degrees": degrees,
    }


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


def _genus(parser: argparse.ArgumentParser, value: int) -> int:
    if not 2 <= value <= MAX_GENUS:
        parser.error(f"--genus must be in 2..{MAX_GENUS}, got {value}")
    return value


def _parse_range(parser: argparse.ArgumentParser, text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:
        parser.error(f"malformed range {text!r}, expected A..B")
    if not 2 <= lo <= hi <= MAX_GENUS:
        parser.error(f"invalid range {text!r}: need 2 <= A <= B <= {MAX_GENUS}")
    return lo, hi


def _write_lines(lines) -> None:
    """Write each line, newline-terminated, to standard output in one call."""
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_coeffs(parser, args) -> int:
    g = _genus(parser, args.genus)
    target = DIVISOR_NAMES[args.divisor]
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
    """The text report of ``cmd_verify``, line by line."""
    for report in reports:
        for r in report.results:
            if r.error is not None:
                yield f"{report.target} g={r.g}: MISMATCH"
                if r.inconsistent:
                    yield f"  inconsistent: {', '.join(r.inconsistent)}"
                else:
                    yield f"  {r.error}"
                continue
            status = "ok" if r.ok else "MISMATCH"
            yield (
                f"{report.target} g={r.g}: {status} "
                f"(rank {r.rank}/{r.n_unknowns}, {r.n_redundant} redundant)"
            )
            for name, got, want in r.mismatches:
                yield f"  {name}: solver={got} closed={want}"
        yield report.summary()


def cmd_verify(parser, args) -> int:
    lo, hi = _parse_range(parser, args.range)
    from . import closedform

    targets = DIVISOR_NAMES.values() if args.divisor == "both" else [DIVISOR_NAMES[args.divisor]]
    reports = [closedform.verify_range(lo, hi, t) for t in targets]
    if args.json:
        _write_lines([render_json([verification_record(r) for r in reports])])
    else:
        _write_lines(_verify_lines(reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def cmd_relations(parser, args) -> int:
    g = _genus(parser, args.genus)
    from .families import assemble_system

    _write_lines(r.render() for r in assemble_system(g, DIVISOR_NAMES[args.divisor]))
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


def cmd_families(parser, args) -> int:
    g = _genus(parser, args.genus)
    options, key = FAMILIES[args.family]
    for name in ("i", "section", "side", "marks", "kind"):  # every option a family may take
        if (getattr(args, name) is None) == (name in options):
            verb = "is required for" if name in options else "is not taken by"
            parser.error(f"--{name} {verb} family {args.family!r}")
    from . import families as F

    try:
        dv = F.evaluate(F.TEMPLATES[key(args)], g, args.i)
    except F.DomainError as exc:
        parser.error(str(exc))
    _write_lines([render_json(degree_vector_record(dv))])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypdiv",
        description="Exact divisor-class tables for stacks of pointed hyperelliptic curves.",
    )
    parser.add_argument("--version", action="version", version=f"hypdiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table of a divisor class")
    p.add_argument("--divisor", choices=["w", "g12"], required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    p.add_argument("--view", choices=["formal", "canonical"], default="formal")
    p.add_argument("--source", choices=["closed", "solver"], default="closed")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="check solver output against the closed forms")
    p.add_argument("--range", required=True, metavar="A..B")
    p.add_argument("--divisor", choices=["w", "g12", "both"], default="both")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("relations", help="dump the assembled relation system")
    p.add_argument("--divisor", choices=["w", "g12"], required=True)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("families", help="dump one family's degree vector as JSON")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--section", choices=["horizontal", "diagonal"])
    p.add_argument("--side", choices=["low", "high"])
    p.add_argument("--marks", type=int, choices=[1, 2])
    p.add_argument("--kind", choices=["single", "weierstrass_involution"])
    p.set_defaults(func=cmd_families)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
