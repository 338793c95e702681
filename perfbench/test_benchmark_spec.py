"""BENCHMARK.json names exactly the workloads and metrics the benchmark runs
and prints.

Run with:  python3 -m pytest -q perfbench/test_benchmark_spec.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    printed = run.end_to_end([1.0, 2.0, 3.0], {"peak_rss_mb": 80.0, "round_cal": 6.0})
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert spec == {name: m["unit"] for name, m in printed.items()}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    spec = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert spec == workloads.PER_LAYER
    printed = workloads.layer_metrics([], {})
    assert list(printed) == [name for name, _, _ in spec]
