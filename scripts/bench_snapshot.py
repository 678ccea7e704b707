#!/usr/bin/env python3
"""Record the end-to-end benchmark of one source tree in BENCH_<pr>.json.

Usage, from the repository root:

    python3 scripts/bench_snapshot.py --pr 12 --seed 7 --seconds 8 --label change
    python3 scripts/bench_snapshot.py --pr 12 --seed 7 --seconds 8 --label parent \
        --tree ../nullhelix-parent

For each workload in perfbench/workloads.py this runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

as a subprocess in ``--tree`` (default: this repository) and keeps the
run's final JSON line.  The record goes under ``--label`` in
BENCH_<pr>.json at the root of this repository, beside any other labels
already there, with the seed, ``--seconds``, the tree's commit (and whether
its tracked files had uncommitted changes), the Python and numpy versions
and the CPU count.  Record the parent and the change with the same
arguments on the same machine, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flat_synth", "curve_frames", "curved_ambient")


def _git(tree: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--label", default="change")
    ap.add_argument("--tree", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    tree = args.tree.resolve()
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": _git(tree, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(tree, "status", "--porcelain",
                                         "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "runs": {w: run_workload(tree, w, args.seed, args.seconds) for w in WORKLOADS},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    snapshot = json.loads(out.read_text()) if out.exists() else {}
    snapshot[args.label] = record
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    for w, run in record["runs"].items():
        m = run["metrics"]
        print(f"{args.label:8s} {w:15s} correct={run['correct']} "
              f"wall_s={m['wall_s']['value']:.4f} setup_s={m['setup_s']['value']:.4f} "
              f"peak_rss_mb={m['peak_rss_mb']['value']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
