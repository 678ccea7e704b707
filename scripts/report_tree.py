#!/usr/bin/env python3
"""Write every benchmark document's outputs for one source tree, so that two
trees compare with ``diff -r``.

Usage, from the root of the tree to report on:

    python3 scripts/report_tree.py OUT_DIR [--seeds 7 8] [--digests FILE]

It imports the tree's ``src`` and its ``perfbench/workloads.py`` (read, not
written: no bytecode is cached), then runs each document of each workload,
for each seed, through ``nullhelix.cli.run`` with the flags perfbench gives
it: ``--out``, ``--csv`` where the document checks a trace, ``--project``
where it asks for one.  For a document it writes
``<workload>.<seed>.<doc>`` with the suffixes ``.spec.json``,
``.report.json``, ``.csv`` (when written), ``.exit`` and ``.stderr`` into
OUT_DIR.  It runs inside OUT_DIR with relative file names, so no output
depends on where OUT_DIR is.  To compare a change with its parent, run this
script from both roots and diff the two directories:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    (cd ../parent && python3 "$OLDPWD/scripts/report_tree.py" ../reports-parent)
    python3 scripts/report_tree.py ../reports-change
    diff -r ../reports-parent ../reports-change

``--digests FILE`` also writes the sha256 of every file written, with the
seeds and the environment the bits depend on (Python, numpy, and the
platform with its C library, whose libm the elementary functions call).
``tests/test_report_tree.py`` compares the tree's files at seeds 7, 8 and 9
with ``tests/data/report_digests.json``; a change that means to alter report
bytes rewrites that file:

    python3 scripts/report_tree.py ../reports --seeds 7 8 9 \\
        --digests tests/data/report_digests.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy


def load_workloads(root: Path):
    """The ``perfbench/workloads.py`` module of the tree at ``root``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads the defining module
    spec.loader.exec_module(module)
    return module


def write_tree(cli, workloads, seeds) -> int:
    """Run every document into the current directory; the number run."""
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for doc in workloads.generate(workload, seed):
                stem = f"{workload}.{seed}.{doc.name}"
                Path(f"{stem}.spec.json").write_text(json.dumps(doc.spec))
                argv = [doc.command, "--spec", f"{stem}.spec.json",
                        "--out", f"{stem}.report.json"]
                if doc.project:
                    argv.append("--project")
                if doc.csv:
                    argv += ["--csv", f"{stem}.csv"]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                Path(f"{stem}.exit").write_text(f"{code}\n")
                Path(f"{stem}.stderr").write_text(err.getvalue())
                count += 1
    return count


def environment() -> dict:
    """What a report's bits depend on beside the tree."""
    libc = "".join(platform.libc_ver())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": f"{sys.platform}-{platform.machine()}-{libc}"}


def digests(out_dir: Path) -> dict:
    """File name -> sha256 of each file in ``out_dir``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    ap.add_argument("--digests", type=Path, help="write the files' sha256 here")
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from nullhelix import cli

    workloads = load_workloads(root)
    out_dir = args.out_dir.resolve()
    record_file = args.digests and args.digests.resolve()  # before the chdir
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    count = write_tree(cli, workloads, args.seeds)
    print(f"{count} documents from {root} into {args.out_dir}")
    if record_file:
        record = {"environment": environment(), "seeds": args.seeds,
                  "files": digests(out_dir)}
        record_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
