"""hypdiv benchmark: the command that runs one workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  ``--trace 0`` runs the workload's command
as real ``hypdiv`` processes in a closed loop (one client; the next job
starts when the previous one has exited) for ``--seconds`` seconds, checks
every output, and reports the end-to-end metrics.  ``--trace 1`` runs the
same command in this process, alternately untraced and traced, plus a
traced run at half the genus, and reports the per-layer metrics.  The last
line of standard output is the JSON result; metric names and units are the
ones declared in ``BENCHMARK.json``.

``--all`` runs every workload in both modes, each in its own process, and
prints every metric by name with its unit, plus ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import math
import statistics
import subprocess
import sys
import time

import workloads as W
from speed import Scaler

ROOT = W.HERE.parent
SPANS_DIR = ROOT / ".perfbench-out"
VERSION_RUNS = 11


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(correct: bool, attempted: int, failed: int, values: dict, section: str) -> str:
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json {section}"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def report(problem: str) -> None:
    print(problem, file=sys.stderr)


# end-to-end: real processes ------------------------------------------------------


def measure_processes(workload: W.Workload, seed: int, seconds: float):
    scaler = Scaler()
    versions, raw_versions = [], []
    failed = 0
    for _ in range(VERSION_RUNS):
        out = W.run_hypdiv(ROOT, ["--version"])
        if out.status != 0 or not out.stdout.startswith(b"hypdiv "):
            failed += 1
            report(f"--version: exit {out.status}, output {out.stdout[:80]!r}")
        raw_versions.append(out.wall_s)
        versions.append(scaler.scale(out.wall_s))

    order = workload.order(seed)
    jobs = {value: workload.job(ROOT, value, False) for value in order}
    rows = {value: job.rows() for value, job in jobs.items()}
    scaled, raw_jobs, rss, job_rows = [], [], [], []
    job_failures = 0
    start = time.perf_counter()
    while not scaled or time.perf_counter() - start < seconds:
        value = order[len(scaled) % len(order)]
        job = jobs[value]
        out = W.run_hypdiv(ROOT, job.args)
        raw_jobs.append(out.wall_s)
        scaled.append(scaler.scale(out.wall_s))
        job_rows.append(rows[value])
        rss.append(out.maxrss_kb)
        problem = job.check(out.status, out.stdout)
        if problem:
            job_failures += 1
            report(f"{' '.join(job.args)}: {problem}; stderr {out.stderr[-400:]!r}")

    median = statistics.median
    report(
        f"{workload.name}: {len(scaled)} jobs over {len(order)} band values, raw wall p50 "
        f"{median(raw_jobs):.4f} s, raw --version p50 {median(raw_versions):.4f} s"
    )
    values = {
        "job_s_p50": median(scaled),
        "rows_per_s": statistics.mean(job_rows) / median(scaled),
        "setup_s": median(versions),
        "peak_rss_mb": median(rss) / 1024,
        "ok_ratio": (len(scaled) - job_failures) / len(scaled),
    }
    attempted = VERSION_RUNS + len(scaled)
    failed += job_failures
    return failed == 0, attempted, failed, values


# per-layer: traced in-process runs ---------------------------------------------


def run_in_process(main, args, tracer=None):
    """(exit status, stdout bytes, wall seconds) of one in-process command."""
    buffer = io.StringIO()
    # Start every run from a collected heap, so that garbage left by the
    # previous run is not collected on this one's clock.
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            status = tracer.call("cli", "main", main, args) if tracer else main(args)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    return status, buffer.getvalue().encode("utf-8"), wall


def growth(at_g: float, at_half: float, genus: int, half_genus: int) -> float:
    """Exponent k of a self time growing like g**k between the half-size
    genus and G; log2(at_g / at_half) when the half genus is exactly G/2.
    0 when either time is 0."""
    if at_g <= 0 or at_half <= 0:
        return 0.0
    return math.log(at_g / at_half) / math.log(genus / half_genus)


def write_spans(name: str, spans: list) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    with gzip.open(SPANS_DIR / f"{name}.spans.tsv.gz", "wt", compresslevel=1) as out:
        out.write("index\tname\tstart_s\tend_s\tparent\n")
        origin = spans[0][2] if spans else 0.0
        for index, (label, _, start, end, parent) in enumerate(spans):
            out.write(f"{index}\t{label}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def measure_layers(workload: W.Workload, seed: int, seconds: float):
    W.import_source(ROOT)
    import hypdiv
    from hypdiv import cli
    from spans import LAYERS, Tracer

    first = workload.order(seed)[0]
    job = workload.job(ROOT, first, False)
    half = workload.job(ROOT, first, True)
    tracer = Tracer(hypdiv)
    untraced, traced, unattributed = [], [], []
    self_main = {layer: [] for layer in LAYERS}
    self_half = {layer: [] for layer in LAYERS}
    counts = {}
    attempted = failed = 0

    def check(run_job, status, stdout) -> None:
        nonlocal attempted, failed
        attempted += 1
        problem = run_job.check(status, stdout)
        if problem:
            failed += 1
            report(f"in-process {' '.join(run_job.args)}: {problem}")

    def traced_run(run_job, into):
        nonlocal failed
        tracer.reset()
        tracer.install()
        try:
            status, stdout, wall = run_in_process(cli.main, run_job.args, tracer)
        finally:
            tracer.uninstall()
        check(run_job, status, stdout)
        for layer, value in tracer.self_times().items():
            into[layer].append(value)
        seen = dict(tracer.counts, **{"cli.output_bytes": len(stdout)})
        key = " ".join(run_job.args)
        if counts.setdefault(key, seen) != seen:
            failed += 1
            report(f"counts of {key} differ between runs: {counts[key]} vs {seen}")
        return wall, tracer.root_time(), tracer.spans

    start = time.perf_counter()
    repetitions = 0
    # At least two traced runs, so that every count is seen to repeat.
    while repetitions < 2 or time.perf_counter() - start < seconds:
        status, stdout, wall = run_in_process(cli.main, job.args)
        check(job, status, stdout)
        untraced.append(wall)
        wall, rooted, last_spans = traced_run(job, self_main)
        traced.append(wall)
        unattributed.append(wall - rooted)
        traced_run(half, self_half)
        repetitions += 1
    write_spans(workload.name, last_spans)

    main_counts = counts[" ".join(job.args)]
    median = statistics.median
    values = {f"{layer}.self_s": median(self_main[layer]) for layer in LAYERS}
    rows = main_counts.get("exactlin.rows", 0)
    solves = main_counts.get("solver.solves", 0)
    values.update(
        {
            "exactlin.calls": main_counts.get("exactlin.calls", 0),
            "exactlin.rows": rows,
            "exactlin.unknowns": main_counts.get("exactlin.unknowns", 0),
            "exactlin.nnz": main_counts.get("exactlin.nnz", 0),
            "exactlin.redundant_ratio": main_counts.get("exactlin.redundant", 0) / rows
            if rows
            else 0.0,
            "exactlin.max_bits": main_counts.get("exactlin.max_bits", 0),
            "solver.assemble_per_solve": main_counts.get("solver.assemblies", 0) / solves
            if solves
            else 0.0,
            "solver.relations": main_counts.get("solver.relations", 0),
            "surfcalc.blowups": main_counts.get("surfcalc.blowups", 0),
            "families.vectors": main_counts.get("families.vectors", 0),
            "basis.formal_position_calls": main_counts.get("basis.formal_position_calls", 0),
            "cli.output_bytes": main_counts["cli.output_bytes"],
            "trace.wall_s": median(traced),
            "trace.overhead_ratio": median(traced) / median(untraced),
            "trace.unattributed_s": median(unattributed),
        }
    )
    for layer in ("exactlin", "solver", "surfcalc"):
        values[f"{layer}.growth"] = growth(
            median(self_main[layer]), median(self_half[layer]), job.genus, half.genus
        )
    return failed == 0, attempted, failed, values


# --all: every workload, both modes ---------------------------------------------


def run_all(seed: int, seconds: int) -> int:
    status = 0
    print(f"{'workload':<16} {'metric':<28} {'value':>14}  unit")
    for name in W.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name:<16} trace {trace} failed with exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                print(f"{name:<16} {'failed_ratio':<28} {ratio:>14.4g}  1")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
                print(f"{name:<16} {metric:<28} {shown}  {entry['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    args = parser.parse_args(argv)
    try:
        W.find_source(ROOT)
    except W.SetupError as exc:
        report(f"perfbench: {exc}")
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    measure = measure_layers if args.trace else measure_processes
    section = "per_layer" if args.trace else "end_to_end"
    correct, attempted, failed, values = measure(W.WORKLOADS[args.workload], args.seed, args.seconds)
    print(result_line(correct, attempted, failed, values, section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
