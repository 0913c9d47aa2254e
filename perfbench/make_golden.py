"""Capture the golden digests that relations-large jobs are checked against.

    python3 perfbench/make_golden.py

Runs ``hypdiv relations --divisor g12 --genus G`` for every genus the
workload and its half-size traced run can pick, and writes the line count
and SHA-256 of each output to ``golden_relations.json``.  The stored file
was captured from the commit that introduced the benchmark; regenerate it
only when a change to the relation output is intended.
"""

from __future__ import annotations

import json
import sys

import workloads as W


def main() -> int:
    golden = {}
    for genus in W.golden_genera():
        out = W.run_hypdiv(W.HERE.parent, W.relations_args(genus))
        if out.status != 0:
            print(f"g={genus}: exit {out.status}: {out.stderr[-400:]!r}", file=sys.stderr)
            return 1
        golden[str(genus)] = W.digest(out.stdout)
    W.GOLDEN_RELATIONS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
