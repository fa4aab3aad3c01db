"""The benchmark harness still runs against the package.

A traced perfbench run wraps every wfaug function and method named in
``perfbench/spans.py``, so deleting or renaming one of them, or breaking a
workload's use of the public API, fails here. Each workload runs once
traced and once untraced at tiny sizes on a copy of the sources, so the
checkout gets no ``.perfbench`` output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


WORKLOADS = ["fewshot_hda", "cli_pipeline", "openworld_eval"]


def assert_tiny_run_is_correct(root, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "0.5", "--trace", trace, "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_is_correct(bench_copy, workload):
    assert_tiny_run_is_correct(bench_copy, workload, "1")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run_is_correct(bench_copy, workload):
    """The untraced run is the one the end-to-end metrics come from; its
    final check rescores the models on float64 input, which runs every
    layer, against what the program reported."""
    assert_tiny_run_is_correct(bench_copy, workload, "0")
