"""A one-second run of each benchmark workload, so that a change to
cppatlas that breaks what ``perfbench/`` reads of it (``intent.docs``,
``index.edges``, ``is_synthetic``, ``UNRESOLVED_PREFIX``, ...) fails here
rather than only when the benchmark is next run.

Each run starts from a directory that links the checkout's ``src``,
``tests`` and ``BENCHMARK.json``, so its ``.perfbench_work/`` is made
there and not in the checkout."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run(tmp_path, workload: str, seed: int) -> dict:
    for name in ("src", "tests", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_correct_at_seed_101(tmp_path, workload):
    last = _run(tmp_path, workload, 101)
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0


@pytest.mark.xfail(strict=False, reason=(
    "Known defect: perfbench/oracle.py multiplies the intent matrix on "
    "OpenBLAS's default thread count, so at seed 1101 some of its scores "
    "differ from QueryCodeIntent's in the last bit"))
def test_query_distinct_runs_correct_at_seed_1101(tmp_path):
    last = _run(tmp_path, "query-distinct", 1101)
    assert last["correct"] is True
    assert last["failed"] == 0
