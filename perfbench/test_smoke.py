"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = {
    "er-rounds": {"n": 256, "pool": 4, "traced": 3},
    "pa-forbidden": {"n": 512, "pool": 4, "traced": 2},
    "cli-grid-mm": {"side": 12, "pool": 4, "traced": 2},
}
DETERMINISTIC = ("augment.rounds", "augment.work", "flowgraph.build_work", "solver.cost")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


@pytest.fixture(scope="module")
def minput():
    return run.load_minput()


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(minput, workload, trace):
    result = run.run_workload(minput, workload, 1, 0.05, trace, TINY[workload])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]
    line = run.summary(result)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_for_a_seed(minput, workload):
    runs = [run.run_workload(minput, workload, 7, 0.05, True, TINY[workload]) for _ in range(2)]
    first, second = ({k: r["metrics"][k] for k in DETERMINISTIC} for r in runs)
    assert first == second
    assert first["augment.rounds"] >= 1 and first["solver.cost"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ has no
    minput to measure: the command must fail without printing a result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "er-rounds", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
