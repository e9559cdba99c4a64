"""Self-test of the benchmark: exact counts repeat, and no checkout means no result.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.  Each
traced run does two ops, one traced and one plain, so the whole file takes
about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT = ["variational.vi_iterations.sum", "variational.vi_iterations.max",
         "variational.operator_bytes", "cli.csv_bytes"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = (run.run_workload(workload, seed=7, seconds=0.001, trace=1)
                     for _ in range(2))
    for res in (first, second):
        assert res["line"]["correct"], res["report"]["errors"]
        assert res["report"]["unwrapped"] == []
    counts = [{m: res["line"]["metrics"][m]["value"] for m in EXACT}
              for res in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.csv_bytes"] > 0
    if workload == "dirichlet-singular":
        assert counts[0]["variational.operator_bytes"] == 24 * 999 * 999 * 8
    else:
        assert counts[0]["variational.vi_iterations.max"] > 0


def test_no_checkout_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", ".traces", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "small-nets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
