"""Command-line front end: compute, verify, and export coefficient tables.

Subcommands: ``coeffs``, ``verify``, ``relations``, ``families``.
Rationals are always serialized as integer (numerator, denominator)
pairs; nothing is ever rendered as a decimal.  Exit status contract:
0 success, 1 verification mismatch, 2 usage error (including a genus
above ``MAX_GENUS``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from . import basis as B
from . import closedform
from . import families as F
from . import solver
from .families import G12, WEIERSTRASS

DIVISOR_NAMES = {"w": WEIERSTRASS, "g12": G12}

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# about twice the largest genus the benchmark workloads use (1020)
MAX_GENUS = 2000


def _fraction_pair(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def output_record(g: int, target: str, view: str, expr: B.DivisorExpression) -> dict:
    """JSON-serializable coefficient table for one divisor class."""
    n = expr.n
    if view == "canonical":
        expr = expr.canonical()
        order = B.enumerate_basis(g, n)
    else:
        order = B.formal_elements(g, n)
    terms = [
        {"class": e.name(n), "num": expr.terms[e].numerator, "den": expr.terms[e].denominator}
        for e in order
        if e in expr.terms
    ]
    identified = [
        f"{twin.name(n)} = {canonical.name(n)}" for twin, canonical in B.identified_pairs(g, n)
    ]
    return {
        "genus": g,
        "divisor": target,
        "view": view,
        "terms": terms,
        "metadata": {
            "tool_version": __version__,
            "basis_order": [e.name(n) for e in order],
            "identified": identified,
        },
    }


def render_json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=False)


def parse_record(text: str) -> dict:
    return json.loads(text)


def render_csv(record: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["class", "numerator", "denominator"])
    for term in record["terms"]:
        writer.writerow([term["class"], term["num"], term["den"]])
    return buffer.getvalue()


_LATEX_TARGET = {WEIERSTRASS: r"\bigl[\mathcal{W}\bigr]", G12: r"\bigl[\mathcal{G}^{1}_{2}\bigr]"}


def _latex_class(name: str) -> str:
    if name == "psi":
        return r"\psi"
    if name.startswith("psi"):
        return rf"\psi_{{{name[3:]}}}"
    if name == "eta_irr":
        return r"\eta_{\mathrm{irr}}"
    if name == "delta_0_2":
        return r"\delta_{0,2}"
    kind, index, marking = name.split("_")
    symbol = r"\delta" if kind == "delta" else r"\eta"
    marking = {"1a": r"\{1\}", "1b": r"\{2\}"}.get(marking, marking)
    return rf"{symbol}_{{{index},{marking}}}"


def _latex_coefficient(num: int, den: int) -> tuple[str, str]:
    sign = "-" if num < 0 else "+"
    num = abs(num)
    if den == 1:
        magnitude = "" if num == 1 else str(num)
    else:
        magnitude = rf"\tfrac{{{num}}}{{{den}}}"
    return sign, magnitude


def render_latex(record: dict) -> str:
    pieces = []
    for term in record["terms"]:
        sign, magnitude = _latex_coefficient(term["num"], term["den"])
        pieces.append((sign, magnitude + _latex_class(term["class"])))
    if not pieces:
        body = "0"
    else:
        first_sign, first = pieces[0]
        body = ("-" if first_sign == "-" else "") + first
        for sign, text in pieces[1:]:
            body += f" {sign} {text}"
    lhs = _LATEX_TARGET[record["divisor"]]
    comment = f"% genus {record['genus']}, view {record['view']}"
    return f"{comment}\n\\[\n{lhs} = {body}\n\\]"


RENDERERS = {"json": render_json, "csv": render_csv, "latex": render_latex}


def degree_vector_record(dv: F.DegreeVector) -> dict:
    degrees = []
    for label, value in dv.degrees.items():
        degrees.append(
            {
                "class": label.name(dv.n),
                "num": value.numerator,
                "den": value.denominator,
                "auxiliary": F.is_auxiliary(label, dv.g),
            }
        )
    return {
        "family": dv.family,
        "params": dv.params,
        "ambient": {"g": dv.g, "n": dv.n},
        "target": {
            "divisor": dv.target,
            "num": dv.target_degree.numerator,
            "den": dv.target_degree.denominator,
        },
        "degrees": degrees,
    }


def verification_record(report: closedform.VerificationReport) -> dict:
    results = []
    for r in report.results:
        failure = {} if r.error is None else {"error": r.error, "inconsistent": r.inconsistent}
        results.append(
            {
                "g": r.g,
                "ok": r.ok,
                "rank": r.rank,
                "n_unknowns": r.n_unknowns,
                "n_redundant": r.n_redundant,
                "auxiliaries": {k: _fraction_pair(v) for k, v in r.auxiliaries.items()},
                "mismatches": [
                    {
                        "class": name,
                        "solver": _fraction_pair(got) if got is not None else None,
                        "closed": _fraction_pair(want) if want is not None else None,
                    }
                    for name, got, want in r.mismatches
                ],
                **failure,
            }
        )
    return {
        "target": report.target,
        "g_min": report.g_min,
        "g_max": report.g_max,
        "ok": report.ok,
        "results": results,
    }


def _genus(parser: argparse.ArgumentParser, value: int) -> int:
    if not 2 <= value <= MAX_GENUS:
        parser.error(f"--genus must be in 2..{MAX_GENUS}, got {value}")
    return value


def _parse_range(parser: argparse.ArgumentParser, text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        parser.error(f"malformed range {text!r}, expected A..B")
    if not 2 <= lo <= hi <= MAX_GENUS:
        parser.error(f"invalid range {text!r}: need 2 <= A <= B <= {MAX_GENUS}")
    return lo, hi


def cmd_coeffs(parser, args) -> int:
    g = _genus(parser, args.genus)
    target = DIVISOR_NAMES[args.divisor]
    if args.source == "solver":
        expr = solver.solve_coefficients(g, target).solution
    else:
        expr = closedform.closed_form(g, target)
    record = output_record(g, target, args.view, expr)
    print(RENDERERS[args.format](record))
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    lo, hi = _parse_range(parser, args.range)
    targets = [WEIERSTRASS, G12] if args.divisor == "both" else [DIVISOR_NAMES[args.divisor]]
    reports = [closedform.verify_range(lo, hi, t) for t in targets]
    if args.json:
        print(json.dumps([verification_record(r) for r in reports], indent=2))
    else:
        for report in reports:
            for r in report.results:
                if r.error is not None:
                    print(f"{report.target} g={r.g}: MISMATCH")
                    if r.inconsistent:
                        print(f"  inconsistent: {', '.join(r.inconsistent)}")
                    else:
                        print(f"  {r.error}")
                    continue
                status = "ok" if r.ok else "MISMATCH"
                print(
                    f"{report.target} g={r.g}: {status} "
                    f"(rank {r.rank}/{r.n_unknowns}, {r.n_redundant} redundant)"
                )
                for name, got, want in r.mismatches:
                    print(f"  {name}: solver={got} closed={want}")
            print(report.summary())
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def cmd_relations(parser, args) -> int:
    g = _genus(parser, args.genus)
    target = DIVISOR_NAMES[args.divisor]
    for relation in solver.assemble_system(g, target):
        print(relation.render())
    return EXIT_OK


# family name -> (catalog function, the options it takes after the genus, in order)
FAMILIES = {
    "diagonal": (F.diagonal_family, ()),
    "quadric_pencil": (F.quadric_pencil_family, ("marks",)),
    "glued": (F.glued_weierstrass_family, ("i", "section", "side", "marks")),
    "two_point": (F.two_point_blowup_family, ("kind",)),
    "ruling": (F.g12_ruling_family, ("i", "side")),
    "f2ip1": (F.f2ip1_family, ("i",)),
}


def cmd_families(parser, args) -> int:
    g = _genus(parser, args.genus)
    build, options = FAMILIES[args.family]
    values = []
    for name in options:
        if getattr(args, name) is None:
            parser.error(f"--{name} is required for family {args.family!r}")
        values.append(getattr(args, name))
    try:
        dv = build(g, *values)
    except B.DomainError as exc:
        parser.error(str(exc))
    print(json.dumps(degree_vector_record(dv), indent=2))
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
    p.add_argument("--section", choices=[F.HORIZONTAL, F.DIAGONAL])
    p.add_argument("--side", choices=[F.LOW, F.HIGH])
    p.add_argument("--marks", type=int, choices=[1, 2])
    p.add_argument("--kind", choices=[F.SINGLE, F.WEIERSTRASS_INVOLUTION])
    p.set_defaults(func=cmd_families)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
