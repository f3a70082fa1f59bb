"""Self-check of the benchmark: traced counts repeat exactly, and the speed
probe samples while it runs.

    python3 -m pytest perfbench/test_determinism.py

Runs each workload's traced pass twice in fresh processes (about a minute
and a half in all) and asserts that every per-layer count is identical and
that the metric names agree with BENCHMARK.json.
"""

import json

import pytest

import run
import tracer
from probe import Probe, snippet


def traced_counts(name, seed):
    return run.run_worker(name, seed, "traced")["layers"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name):
    first, second = traced_counts(name, 0), traced_counts(name, 0)
    assert tracer.mismatched([first, second]) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracer.METRICS)


def test_probe_samples_and_accounts_for_its_time():
    probe = Probe()
    probe.start()
    for _ in range(400):
        snippet()
    probe.stop()
    summary = probe.take()
    assert summary["samples"] >= 5
    assert 0 < summary["probe_cpu_s"] and 0 < summary["probe_s"]
    assert 0 < summary["speed"] < 10
    assert probe.take()["probe_s"] == 0   # take starts afresh
