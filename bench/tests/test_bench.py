"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import passrun  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# two cheap analyze requests keep the in-process passes short
CHEAP = {"example:ex2_13", "example:ex4_10"}


def cheap(op):
    return op.id in CHEAP


def test_tail_percentile_keeps_ten_beyond():
    assert stats.tail_percentile(175) == 94
    assert stats.tail_percentile(27) == 62
    assert stats.tail_percentile(20) == 50
    for n in (20, 27, 100, 175, 1000):
        p = stats.tail_percentile(n)
        rank = -(-p * n // 100)
        assert n - rank >= 10
        assert n - (-(-(p + 1) * n // 100)) < 10 or p == 99


def test_no_tail_when_too_few_ops():
    for n in (1, 2, 15, 19):
        assert stats.tail_percentile(n) is None


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 94) == 94
    assert stats.nearest_rank([5, 1, 3], 100) == 5
    assert stats.nearest_rank([5, 1, 3], 1) == 1


def test_op_latency_is_median_over_repeats():
    passes = [
        {"per_op": True, "host_factor": 1.0, "op_times": {"a": [0.001, 0.009], "b": [0.002]}},
        {"per_op": True, "host_factor": 1.0, "op_times": {"a": [0.002], "b": [0.004, 0.003]}},
    ]
    latencies = run.op_latencies(passes)
    assert latencies["a"] == pytest.approx(2.0)
    assert latencies["b"] == pytest.approx(3.0)


def test_times_are_scaled_by_the_host_factor():
    slow = {"per_op": True, "host_factor": 2.0, "op_times": {"a": [0.004, 0.006, 0.008]}}
    assert run.op_latencies([slow])["a"] == pytest.approx(3.0)
    assert run.scaled_run({"run_s": 3.0, "host_factor": 1.5}) == pytest.approx(2.0)


def test_batch_workload_op_is_the_pass():
    passes = [
        {"per_op": False, "run_s": 2.0, "host_factor": 1.0, "op_times": {}},
        {"per_op": False, "run_s": 4.0, "host_factor": 1.0, "op_times": {}},
    ]
    assert sorted(run.op_latencies(passes).values()) == [2000.0, 4000.0]


def test_traced_pass_gives_the_same_bytes():
    plain = passrun.run_pass("frames", 0, select=cheap)
    traced = passrun.run_pass("frames", 0, trace=True, select=cheap)
    assert plain["failures"] == [] and traced["failures"] == []
    assert set(plain["outputs"]) == CHEAP
    assert plain["outputs"] == traced["outputs"]
    assert plain["host_factor"] > 0 and traced["host_factor"] > 0
    assert traced["trace"]["analyzer.analyze.calls"] == 2 * workloads.REPEATS["frames"]
    assert traced["trace"]["matgroups.mmul.calls"] > 0


def test_tracer_restores_the_library():
    from conglab import analyzer, matgroups
    before = (analyzer._double_coset_data, matgroups._MatOps.mmul, analyzer.analyze)
    with tracer.Tracer("frames") as active:
        assert analyzer._double_coset_data is not before[0]
        assert active.missing_names() == []
    assert (analyzer._double_coset_data, matgroups._MatOps.mmul, analyzer.analyze) == before


def test_wrong_pin_drives_ok_ratio_below_one():
    pins = passrun.load_pins()
    pins["frames"]["*"]["example:ex2_13"] = "0" * 20
    record = passrun.run_pass("frames", 0, pins=pins, select=cheap)
    failed = len(record["failures"])
    assert failed == workloads.REPEATS["frames"]
    assert all("differs from pin" in line for line in record["failures"])
    metrics, _ = run.end_to_end([record | {"setup_s": 0.1}], [0.1])
    assert metrics["ok_ratio"][0] == pytest.approx(1 - failed / record["attempted"])
    assert metrics["ok_ratio"][0] < 1


def test_missing_pin_fails_the_op():
    pins = passrun.load_pins()
    del pins["frames"]["*"]["example:ex4_10"]
    record = passrun.run_pass("frames", 0, pins=pins, select=cheap)
    assert record["failures"] and all("no pin" in line for line in record["failures"])


def test_inputs_repeat_for_a_seed():
    assert workloads.frame_requests(3) == workloads.frame_requests(3)
    assert workloads.frame_requests(3) != workloads.frame_requests(4)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert workloads.WORKLOADS == tracer.ALL


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    # the runner lives in bench/ and looks for ../src/conglab
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "frames",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
