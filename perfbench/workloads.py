"""Workloads of the hypdiv benchmark: the command each job runs, how its
rows are counted, and how its output is checked.

A workload is a band of inputs (genera, or the start of a genus range).
Each value of the band makes a ``Job``: the CLI arguments of one ``hypdiv``
process, the number of relation rows that process handles, and a check of
its exit status and standard output.  The seed sets the order in which a
run steps through the band.  Every check and every row count runs outside
the timed job.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
GOLDEN_RELATIONS = HERE / "golden_relations.json"

# The child runs exactly what the installed ``hypdiv`` console script runs.
ENTRY = "import sys; from hypdiv.cli import main; sys.exit(main())"

# A job far beyond its usual few seconds is killed and counted as failed,
# so that a hang cannot keep the benchmark from ending.
JOB_TIMEOUT_S = 60.0


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def find_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "hypdiv" / "cli.py").is_file():
        raise SetupError(f"no hypdiv sources under {src}")
    return src


def import_source(root: Path) -> None:
    """Make ``import hypdiv`` load the checkout's sources in this process."""
    src = str(find_source(root))
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass
class Outcome:
    """One finished ``hypdiv`` process."""

    status: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def run_python(root: Path, argv: list[str]) -> Outcome:
    """Run one Python process on the checkout's sources and measure it.

    Wall time runs from just before the process is created until ``wait4``
    reaps it, so interpreter start and package import are included.  Peak
    RSS comes from the child's own rusage.  Linux counts in it the RSS the
    child inherited at fork, so the benchmark keeps its own process small:
    everything that needs hypdiv or a large heap runs in a child.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(find_source(root))
    # Fix the output encoding so the byte-level checks do not depend on the
    # locale the benchmark is started under.
    env["PYTHONIOENCODING"] = "utf-8"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=root,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    reaped = False
    try:
        stdout = proc.stdout.read()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        reaped = True
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Outcome(proc.returncode, stdout, errors[0], wall, usage.ru_maxrss)


def run_hypdiv(root: Path, args: list[str]) -> Outcome:
    """One ``hypdiv`` process, exactly as the console script runs it."""
    return run_python(root, ["-c", ENTRY, *args])


Check = Callable[[int, bytes], Optional[str]]


@dataclass
class Job:
    """One command of a workload, with its expected output."""

    args: list[str]
    genus: int
    check: Check
    rows: Callable[[], int]


def _expect_exit_zero(status: int) -> Optional[str]:
    return None if status == 0 else f"exit status {status}"


# verify-sweep -------------------------------------------------------------

_VERIFY_LINE = re.compile(r"^(weierstrass|g12) g=(\d+): (\S+) ")


def verify_check(lo: int, hi: int) -> Check:
    """Exit 0 and one ``ok`` line per (target, genus) of the range."""
    expected = {(t, g) for t in ("weierstrass", "g12") for g in range(lo, hi + 1)}

    def check(status: int, stdout: bytes) -> Optional[str]:
        problem = _expect_exit_zero(status)
        if problem:
            return problem
        seen = []
        for line in stdout.decode("utf-8", "replace").splitlines():
            m = _VERIFY_LINE.match(line)
            if m is None:
                continue
            if m.group(3) != "ok":
                return f"not ok: {line!r}"
            seen.append((m.group(1), int(m.group(2))))
        if len(seen) != len(expected) or set(seen) != expected:
            return f"{len(seen)} ok lines, expected {len(expected)} for {lo}..{hi}"
        return None

    return check


_COUNT_ROWS = (
    "import sys; from hypdiv import solver; "
    "print(sum(len(solver.assemble_system(int(g), t)) "
    "for g in sys.argv[2:] for t in sys.argv[1].split(',')))"
)


def _system_rows(root: Path, genera, targets) -> int:
    """Rows of the systems hypdiv assembles, counted in a child process."""
    out = run_python(root, ["-c", _COUNT_ROWS, ",".join(targets), *map(str, genera)])
    if out.status != 0:
        raise SetupError(f"counting rows failed: {out.stderr[-400:]!r}")
    return int(out.stdout)


def half_genus(genus: int) -> int:
    """The even genus at or just below G/2.

    Odd and even genera build differently shaped systems (at G near 200 an
    odd-genus solve takes about half the time of an even one), so the
    half-size run keeps the parity fixed.
    """
    return 2 * (genus // 4)


def verify_job(root: Path, lo: int, half: bool = False) -> Job:
    hi = lo + 48
    if half:
        hi = half_genus(hi)
    return Job(
        args=["verify", "--range", f"{lo}..{hi}", "--divisor", "both"],
        genus=hi,
        check=verify_check(lo, hi),
        rows=lambda: _system_rows(root, range(lo, hi + 1), ("weierstrass", "g12")),
    )


# solve-g12-large -----------------------------------------------------------


def same_bytes_check(reference: bytes) -> Check:
    def check(status: int, stdout: bytes) -> Optional[str]:
        problem = _expect_exit_zero(status)
        if problem:
            return problem
        if stdout != reference:
            return f"output differs from the closed-form table ({len(stdout)} vs {len(reference)} bytes)"
        return None

    return check


def solve_job(root: Path, genus: int, half: bool = False) -> Job:
    if half:
        genus = half_genus(genus)
    # The closed-form table is the reference; it is computed once, here.
    reference = run_hypdiv(root, ["coeffs", "--divisor", "g12", "--genus", str(genus)])
    if reference.status != 0:
        raise SetupError(f"closed-form reference failed at g={genus}: {reference.stderr!r}")
    return Job(
        args=["coeffs", "--divisor", "g12", "--genus", str(genus), "--source", "solver"],
        genus=genus,
        check=same_bytes_check(reference.stdout),
        rows=lambda: _system_rows(root, [genus], ("g12",)),
    )


# relations-large -------------------------------------------------------------


def digest(stdout: bytes) -> dict:
    return {"lines": stdout.count(b"\n"), "sha256": hashlib.sha256(stdout).hexdigest()}


def golden_check(golden: dict) -> Check:
    def check(status: int, stdout: bytes) -> Optional[str]:
        problem = _expect_exit_zero(status)
        if problem:
            return problem
        got = digest(stdout)
        if got["lines"] != golden["lines"]:
            return f"{got['lines']} relation lines, expected {golden['lines']}"
        if got["sha256"] != golden["sha256"]:
            return "relation output differs from the golden digest"
        return None

    return check


RELATIONS_BAND = range(980, 1021)


def relations_args(genus: int) -> list[str]:
    return ["relations", "--divisor", "g12", "--genus", str(genus)]


def relations_job(root: Path, genus: int, half: bool = False) -> Job:
    if half:
        genus = half_genus(genus)
    golden = json.loads(GOLDEN_RELATIONS.read_text())[str(genus)]
    return Job(
        args=relations_args(genus),
        genus=genus,
        check=golden_check(golden),
        rows=lambda: golden["lines"],
    )


def golden_genera() -> list[int]:
    """Every genus a relations-large job or its half-size run can use."""
    return sorted({half_genus(g) for g in RELATIONS_BAND} | set(RELATIONS_BAND))


@dataclass(frozen=True)
class Workload:
    """A band of inputs and the job each input makes.  Why each workload
    was chosen is recorded in ``BENCHMARK.json`` and ``README.md``.

    ``job(root, value, half)`` builds the job for one value of the band;
    ``half`` asks for the same command at about half the genus.
    """

    name: str
    band: tuple[int, ...]
    job: Callable[[Path, int, bool], Job]

    def order(self, seed: int) -> list[int]:
        """The band in the order a run with this seed steps through it.

        Successive jobs of a run take successive values, cycling, so every
        run covers the whole band and its median does not hang on which
        value one seed happened to draw.
        """
        return random.Random(seed).sample(self.band, len(self.band))


WORKLOADS = {
    w.name: w
    for w in (
        # A in 2..4 for the range A..A+48: A = 4 costs about 10% more than A = 2.
        Workload("verify-sweep", (2, 3, 4), verify_job),
        # Even genera only: an odd genus in this band solves about twice as
        # fast (see half_genus), and a run that mixed both would measure the
        # mix more than the program.  G = 200 is the 704 x 604 system.
        Workload("solve-g12-large", (196, 198, 200, 202, 204), solve_job),
        Workload("relations-large", tuple(RELATIONS_BAND), relations_job),
    )
}
