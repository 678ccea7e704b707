#!/usr/bin/env python3
"""Write every benchmark document's outputs for one source tree, so that two
trees compare with ``diff -r``.

Usage, from the root of the tree to report on:

    python3 scripts/report_tree.py OUT_DIR [--seeds 7 8]

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
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from nullhelix import cli

    workloads = load_workloads(root)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out_dir)
    count = write_tree(cli, workloads, args.seeds)
    print(f"{count} documents from {root} into {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
