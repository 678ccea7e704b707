"""``scripts/report_tree.py``: one command writes every benchmark document's
outputs for a tree, so two trees compare with ``diff -r``, and the files'
sha256 at seeds 7, 8 and 9 are pinned in ``tests/data/report_digests.json``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [7, 8, 9]
DIGESTS = ROOT / "tests" / "data" / "report_digests.json"


def _script():
    spec = importlib.util.spec_from_file_location(
        "report_tree", ROOT / "scripts" / "report_tree.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The directory the script writes for SEEDS."""
    out = tmp_path_factory.mktemp("reports")
    subprocess.run([sys.executable, "scripts/report_tree.py", str(out),
                    "--seeds", *map(str, SEEDS)], cwd=ROOT, check=True, capture_output=True)
    return out


def test_report_tree_writes_every_document_with_its_expected_exit(tree):
    workloads = _script().load_workloads(ROOT)
    names = set()
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for doc in workloads.generate(workload, seed):
                stem = tree / f"{workload}.{seed}.{doc.name}"
                names.update(f"{stem.name}{suffix}" for suffix in (
                    ".spec.json", ".report.json", ".exit", ".stderr",
                    *((".csv",) if doc.csv else ())))
                assert (stem.parent / f"{stem.name}.exit").read_text() == \
                    f"{doc.expect_exit}\n", stem.name
                assert (stem.parent / f"{stem.name}.stderr").read_text() == ""
    assert {p.name for p in tree.iterdir()} == names


def test_report_bytes_match_the_recorded_digests(tree):
    """Every file keeps the bytes recorded in the digest file.  The bits
    depend on Python, numpy and the platform's libm, so on an environment
    other than the recorded one the check skips, naming both."""
    script, recorded = _script(), json.loads(DIGESTS.read_text())
    here = script.environment()
    if recorded["environment"] != here:
        pytest.skip(f"report digests were recorded on {recorded['environment']}; "
                    f"this environment is {here}")
    assert recorded["seeds"] == SEEDS
    got, want = script.digests(tree), recorded["files"]
    assert sorted(name for name in got.keys() | want.keys()
                  if got.get(name) != want.get(name)) == []
