"""Tests of the benchmark itself (not of xproplab).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

XP = worker.import_checkout_xproplab()

SMOKE_SHAPES = {
    "mc_eval": {"m": 12, "dim": 3, "n_test": 60},
    "train_grid": {"m": 12, "dim": 3, "n_train": 80, "n_test": 40, "lrs": [0.05],
                   "wds": [0.0], "epochs": 3, "patience": 1},
    "xmlc_io": {"d": 50, "m": 20, "n_train": 60, "n_test": 30, "labels_per_row": 3,
                "features_per_row": 5, "zipf": 0.9},
    "recovery": {"m": 12, "dim": 3, "n_train": 400, "n_val": 200, "n_test": 10},
}


def smoke(name: str, tmp_path, seed: int = 3):
    """A workload at smoke size, set up under tmp_path, and its state."""
    wl = dataclasses.replace(workloads.WORKLOADS[name], shape=SMOKE_SHAPES[name])
    if wl.prepare is not None:
        wl.prepare(str(tmp_path / "inputs"), seed, wl.shape)
    return wl, wl.setup(XP, str(tmp_path / "w0"), seed, wl.shape)


def span(name, start, end, parent=None):
    s = spans.Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_with_overlapping_children():
    tree = [span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 3.0, 6.0, parent=0),      # overlaps a: union of a and b is [1, 6]
            span("c", 8.0, 12.0, parent=0),     # runs past the root: clipped to [8, 10]
            span("a.x", 1.5, 2.0, parent=1)]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 2, 3 - 0.5, 3, 4, 0.5])


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([span("leaf", 2.0, 2.25)]) == [0.25]


@pytest.mark.parametrize("n, rank, percentile", [
    (1, 1, 100.0), (10, 10, 100.0), (11, 1, 100 / 11), (12, 2, 200 / 12),
    (20, 10, 50.0), (100, 90, 90.0), (1000, 990, 99.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, percentile):
    times = [float(t) for t in range(n, 0, -1)]  # rank r holds the value r
    value, pct = run.tail(times)
    assert (value, pct) == (float(rank), pytest.approx(percentile))
    if n > 10:
        assert sum(t > value for t in times) == 10


@pytest.mark.parametrize("name", sorted(SMOKE_SHAPES))
def test_smoke_run_passes_its_checks(name, tmp_path):
    wl, state = smoke(name, tmp_path)
    runner = worker.UnitRunner(wl, state)
    runner.run(worker.WARMUP_INDEX, timed=False)
    units = runner.loop(units=2)
    assert (runner.failed, runner.problems) == (0, [])
    assert units == len(runner.times) == 2
    assert runner.attempted == units + 2


@pytest.mark.parametrize("name", sorted(SMOKE_SHAPES))
def test_traced_smoke_run_reports_every_layer_metric(name, tmp_path):
    wl, state = smoke(name, tmp_path)
    recorder = spans.Recorder(time.perf_counter)
    uninstall = spans.install(XP, recorder)
    try:
        runner = worker.UnitRunner(wl, state, recorder=recorder)
        units = runner.loop(units=1)
    finally:
        uninstall()
    assert runner.failed == 0
    assert {s.unit for s in recorder.spans} == set(range(units))
    layers = spans.layer_metrics(recorder.spans, units)
    names = {n for n, _, _ in spans.per_layer_names()} - {"bench.trace_overhead_ratio"}
    assert set(layers) == names
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["bench.accounted_ratio"] == pytest.approx(1.0, abs=0.05)
    unit_time = sum(s.end - s.start for s in recorder.spans if s.name == spans.UNIT_SPAN)
    assert sum(runner.times) == pytest.approx(unit_time, rel=0.05)
    assert XP.metrics.precision_at_k.__name__ == "precision_at_k"
    assert not hasattr(XP.metrics.precision_at_k, "__wrapped__")


def test_corrupted_output_is_a_failure(tmp_path):
    wl, state = smoke("xmlc_io", tmp_path)
    run_unit = wl.run_unit

    def corrupting_unit(state, i):
        raw = run_unit(state, i)
        with open(state.paths["biased.txt"], "a", encoding="utf-8") as fh:
            fh.write("0 1:1.0\n")
        return raw
    runner = worker.UnitRunner(dataclasses.replace(wl, run_unit=corrupting_unit), state)
    runner.loop(units=1)
    assert (runner.attempted, runner.failed) == (2, 1)  # the repeat matches the first record
    assert "biased.txt" in runner.problems[0]


def test_corrupted_metric_value_is_a_failure(tmp_path):
    wl, state = smoke("mc_eval", tmp_path)
    record = wl.record

    def corrupted(state, raw):
        out = record(state, raw)
        out["values"]["P@1"] = 1.5
        return out
    runner = worker.UnitRunner(dataclasses.replace(wl, record=corrupted), state)
    runner.loop(units=1)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "P@1=1.5" in runner.problems[0]


def test_corrupted_reference_is_a_failure(tmp_path):
    wl, state = smoke("recovery", tmp_path)
    good = [wl.record(state, wl.run_unit(state, i)) for i in range(2)]
    bad = json.loads(json.dumps(good))
    bad[1]["files"]["recovery.tsv"] = "0" * 64
    ok_runner = worker.UnitRunner(wl, state, reference=good)
    ok_runner.loop(units=2)
    bad_runner = worker.UnitRunner(wl, state, reference=bad)
    bad_runner.loop(units=2)
    assert (ok_runner.failed, bad_runner.failed) == (0, 1)
    assert bad_runner.problems == ["unit 1: reference: recovery.tsv differs"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_seed_matches_stored_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    seed = workloads.REFERENCE_SEED
    reference = worker.load_reference(wl, seed)
    assert reference, "reference.json has no records for this workload and shape"
    if wl.prepare is not None:
        wl.prepare(str(tmp_path / "inputs"), seed, wl.shape)
    runner = worker.UnitRunner(wl, wl.setup(XP, str(tmp_path / "w0"), seed, wl.shape),
                               reference=reference)
    runner.run(0)
    assert (runner.failed, runner.problems) == (0, [])


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_names()
    assert {m["name"] for m in bench["end_to_end"]} == set(run.end_to_end([1.0], {
        "times": [1.0], "failed": 0, "peak_rss_mb": 1.0}))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_eval",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
