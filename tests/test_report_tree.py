"""``scripts/report_tree.py``: one command writes every benchmark document's
outputs for a tree, so two trees compare with ``diff -r``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "report_tree", ROOT / "scripts" / "report_tree.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_tree_writes_every_document_with_its_expected_exit(tmp_path):
    subprocess.run([sys.executable, "scripts/report_tree.py", str(tmp_path),
                    "--seeds", "7"], cwd=ROOT, check=True, capture_output=True)
    workloads = _script().load_workloads(ROOT)
    names = set()
    for workload in workloads.WORKLOADS:
        for doc in workloads.generate(workload, 7):
            stem = tmp_path / f"{workload}.7.{doc.name}"
            names.update(f"{stem.name}{suffix}" for suffix in (
                ".spec.json", ".report.json", ".exit", ".stderr",
                *((".csv",) if doc.csv else ())))
            assert (stem.parent / f"{stem.name}.exit").read_text() == \
                f"{doc.expect_exit}\n", stem.name
            assert (stem.parent / f"{stem.name}.stderr").read_text() == ""
    assert {p.name for p in tmp_path.iterdir()} == names
