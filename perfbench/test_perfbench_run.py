"""End-to-end runs of the benchmark command, kept short.

They check the output contract, not speed: the last line is one JSON
object whose metric names and units are those of BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

sys.path.insert(0, HERE)

import metrics  # noqa: E402


def run_bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == ["analyze", "evolve", "bridge", "cli"]


def test_metric_dicts_carry_the_names_of_benchmark_json():
    result = {"latency_ns": [3, 1, 2, 4], "input": [0, 1, 1, 0], "rss_kb": 1024,
              "children_rss_kb": 2048}
    e2e = metrics.end_to_end("analyze", metrics.samples("analyze", result, 2), 0.5, result)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    stats = metrics.SpanStats()
    stats.add(["op"], [[0, 0, 10, -1]], [10])
    layer = stats.layer_metrics(import_ms=1.0, floor_ms=2.0, overhead_frac=0.0)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    res = run_bench(ROOT, "--workload", "bridge", "--seed", "3", "--seconds", "0.2",
                    "--trace", str(trace))
    lines = res.stdout.strip().splitlines()
    assert res.returncode == 0, res.stderr
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    round_size = int(next(ln for ln in lines if ln.startswith("workload:"))
                     .split("round of ")[1].split()[0])
    # the first round always completes, however short the run
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= round_size
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert any(line.startswith("digest: sha256:") for line in lines)
    if trace == 0:
        assert any(line.startswith("failed_frac: 0.0 fraction") for line in lines)


def test_best_of_repeats_follows_the_input_each_operation_ran():
    assert metrics.best_of_repeats([5, 7, 3, 9, 4, 8], [0, 1, 1, 0, 2, 2], 3) == [5, 3, 4]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = run_bench(tmp_path, "--workload", "analyze", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""
