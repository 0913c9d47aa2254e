"""Self-test of the hypdiv benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few minutes.  It shows that

* each workload's output check accepts real output and rejects tampered
  output: a changed coefficient, a nonzero exit status, a dropped or
  altered relation line, a verify line that is not ``ok``;
* ``run.py --all`` prints every metric of ``BENCHMARK.json`` by name with
  its unit, plus ``failed_ratio``, for every workload, and every output
  passes its check;
* the exact counts of the traced run repeat between two separate runs;
* the benchmark exits nonzero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import workloads as W

ROOT = W.HERE.parent
SEED = 7
TIMED_UNITS = ("s", "log2")
failures: list[str] = []


def expect(name: str, condition: bool, detail: str = "") -> None:
    print(f"{'PASS' if condition else 'FAIL'} {name}{': ' + detail if detail and not condition else ''}")
    if not condition:
        failures.append(name)


def rejects(check, status: int, stdout: bytes) -> bool:
    return check(status, stdout) is not None


def check_output_checks() -> None:
    job = W.solve_job(ROOT, 200, half=True)
    out = W.run_hypdiv(ROOT, job.args)
    expect("solver table passes its check", job.check(out.status, out.stdout) is None)
    tampered = re.sub(rb'"num": (-?\d+)', lambda m: b'"num": %d' % (int(m.group(1)) + 1),
                      out.stdout, count=1)
    expect("one changed coefficient fails", tampered != out.stdout and rejects(job.check, 0, tampered))
    expect("exit status 1 with correct output fails", rejects(job.check, 1, out.stdout))
    usage = W.run_hypdiv(ROOT, ["coeffs", "--divisor", "g12", "--genus", "1", "--source", "solver"])
    expect("real usage error (exit 2) fails", usage.status == 2 and rejects(job.check, usage.status, usage.stdout))

    job = W.relations_job(ROOT, 1000, half=True)
    out = W.run_hypdiv(ROOT, job.args)
    expect("relations output passes its golden", job.check(out.status, out.stdout) is None)
    lines = out.stdout.splitlines(keepends=True)
    expect("one dropped relation line fails", rejects(job.check, 0, b"".join(lines[:5] + lines[6:])))
    altered = b"".join(lines[:5] + [lines[5].replace(b"= 0", b"= 1")] + lines[6:])
    expect("one altered relation fails", altered != out.stdout and rejects(job.check, 0, altered))

    job = W.verify_job(ROOT, 3, half=True)
    out = W.run_hypdiv(ROOT, job.args)
    expect("verify output passes its check", job.check(out.status, out.stdout) is None)
    text = out.stdout.decode()
    expect("a MISMATCH line fails", rejects(job.check, 0, text.replace(": ok ", ": MISMATCH ", 1).encode()))
    dropped = "\n".join(l for i, l in enumerate(text.splitlines()) if i != 3).encode()
    expect("one dropped ok line fails", rejects(job.check, 0, dropped))


def parse_table(text: str) -> dict:
    table = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4:
            workload, metric, value, unit = parts
            table[(workload, metric)] = (int(value) if value.isdigit() else float(value), unit)
    return table


def is_count(name: str, unit: str) -> bool:
    """The per-layer metrics that count work, as opposed to timing it."""
    return "." in name and unit not in TIMED_UNITS and not name.startswith("trace.")


def trace_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(W.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if is_count(k, v["unit"])}


def check_all_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(W.HERE / "run.py"), "--all", "--seed", str(SEED), "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    print(proc.stdout, end="")
    expect("run.py --all exits 0 (every output correct)", proc.returncode == 0)
    table = parse_table(proc.stdout)
    wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    wanted.append(("failed_ratio", "1"))
    for workload in W.WORKLOADS:
        missing = [f"{n} [{u}]" for n, u in wanted if table.get((workload, n), (0, None))[1] != u]
        expect(f"{workload}: every metric printed with its unit", not missing, ", ".join(missing))
        expect(f"{workload}: failed_ratio is 0", table.get((workload, "failed_ratio"), (1,))[0] == 0)
        first = {k: v for (w, k), (v, u) in table.items() if w == workload and is_count(k, u)}
        second = trace_counts(workload)
        # Integer counts must match exactly; ratios up to the table's 6 digits.
        same = all(second[k] == v if isinstance(v, int) else abs(second[k] - v) <= 1e-5 * abs(v)
                   for k, v in first.items())
        expect(f"{workload}: traced counts repeat across runs", bool(first) and same,
               f"{first} vs {second}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(W.HERE, bare / W.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{W.HERE.name}/run.py", "--workload", "solve-g12-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect("without sources: nonzero exit and no result",
           proc.returncode != 0 and not proc.stdout.strip(), proc.stderr[-300:])


def main() -> int:
    check_output_checks()
    check_bare_directory()
    check_all_metrics()
    print(f"{len(failures)} self-test failure(s)" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
