"""Tests of the benchmark itself, on its smoke sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(done.stdout.strip().splitlines()[-2])["detail"]
    assert {name: m["value"] for name, m in detail["metrics"].items()} == {
        name: m["value"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["samples"] >= 1 for m in detail["metrics"].values())
        assert detail["passes"] >= workloads.MIN_PASSES.get(workload, 1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in BENCH["workloads"])


def test_inputs_follow_the_seed(tmp_path):
    _, first = workloads.build("exact-small", 5, True, tmp_path / "a")
    _, again = workloads.build("exact-small", 5, True, tmp_path / "b")
    _, other = workloads.build("exact-small", 6, True, tmp_path / "c")
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "online", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_hung_pass_is_killed_and_its_ops_fail(tmp_path):
    ops, _ = workloads.build("line-large", 0, False, tmp_path / "work")
    records, _, _, error = run.run_pass(ops, ROOT / "src", tmp_path / "pass", False, timeout=1.0)
    assert "timed out" in error
    tally = run.Tally(ops, check.Checker(), {})
    tally.settle(tmp_path / "pass", records, None, error)
    assert len(tally.failures) == len(ops)


def test_the_memory_cap_fails_the_op(tmp_path):
    ops, _ = workloads.build("line-large", 0, False, tmp_path / "work")
    records, _, _, error = run.run_pass(ops, ROOT / "src", tmp_path / "pass", False, timeout=60.0, cap=150 << 20)
    tally = run.Tally(ops, check.Checker(), {})
    tally.settle(tmp_path / "pass", records, None, error)
    assert tally.failures and tally.failures[0].startswith(ops[0]["id"])


def _color_op(tmp_path, bounds, k):
    path = tmp_path / "inst.json"
    path.write_text(workloads.instance_json(bounds, k))
    return {"id": "0000-color", "cmd": "color", "check": {"input": str(path), "k": k}}


def test_checker_rejects_an_unbalanced_coloring(tmp_path):
    # three nested intervals, halves units: [0,4], [0,4], [0,4]
    op = _color_op(tmp_path, [(0, 8), (0, 8), (0, 8)], 2)
    good = json.dumps({"colors": [1, 2, 1], "imbalance": 1})
    assert check.Checker().check(op, 0, good, {})[0] == 3
    for bad in (
        json.dumps({"colors": [1, 1, 1], "imbalance": 3}),  # spread above 1
        json.dumps({"colors": [1, 2, 1], "imbalance": 0}),  # misreported
        json.dumps({"colors": [1, 2], "imbalance": 1}),  # wrong length
    ):
        with pytest.raises(check.CheckFailed):
            check.Checker().check(op, 0, bad, {})
    with pytest.raises(check.CheckFailed):
        check.Checker().check(op, 2, good, {})


def test_checker_sweeps():
    assert check.line_spread([(0, 2), (1, 3)], [1, 1], 2) == 2
    assert check.line_spread([(0, 1), (1, 2)], [1, 2], 2) == 1
    assert check.depths_divisible([(0, 1), (0, 1)], 2)
    assert not check.depths_divisible([(0, 1), (1, 2)], 2)  # depth 1 inside each
    assert check.prefix_spreads([(0, 4), (1, 4), (2, 4)], [1, 1, 2], 2) == [1, 2, 2]
    # criterion 6's tight arc example needs spread 2
    arcs = [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(2))]
    assert check.arc_spread(arcs, Fraction(3), [1, 2, 1], 2) == 2
    assert check.nae_satisfiable(3, [(1, 2, 3)])
    assert not check.nae_satisfiable(1, [(1, 1, 1)])
