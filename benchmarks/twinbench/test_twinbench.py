"""The benchmark's own tests, at ``--smoke`` sizes.

Run explicitly (outside the tier-1 ``testpaths``):

    PYTHONPATH=src python3 -m pytest benchmarks/twinbench/test_twinbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro

from . import inputs, oracle, probes, workloads
from .spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args: str, cwd: str = ROOT, script: str | None = None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
    )


def smoke(workload: str, trace: int, seed: int = 3):
    done = run_cli("--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


# ----------------------------------------------------------------------
# inputs, oracle, spans
# ----------------------------------------------------------------------
def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    def digest(seed):
        rng = np.random.default_rng(seed)
        series = inputs.make_series(rng, 5_000, 100)
        schedule = inputs.make_engine_schedule(rng, 4_901, 500)
        return inputs.inputs_sha256(series, *schedule.values())

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_engine_schedule_has_every_op_kind_and_a_hot_set():
    schedule = inputs.make_engine_schedule(np.random.default_rng(0), 10_000, 4_000)
    assert set(np.unique(schedule["kinds"])) == set(range(len(inputs.OP_NAMES)))
    queries = schedule["positions"][schedule["kinds"] == inputs.OP_QUERY, 0]
    hot = np.isin(queries, schedule["hot_set"]).mean()
    assert 0.2 < hot < 0.4


def test_oracle_profile_matches_a_plain_loop():
    rng = np.random.default_rng(5)
    values = rng.normal(size=300)
    query = rng.normal(size=20)
    expected = [np.max(np.abs(values[i:i + 20] - query)) for i in range(281)]
    assert np.allclose(oracle.distance_profile(values, query), expected, atol=0, rtol=0)
    positions, distances = oracle.twins(values, values[40:60], 0.0)
    assert positions.tolist() == [40] and distances.tolist() == [0.0]


def test_oracle_knn_breaks_ties_by_position():
    values = np.tile([0.0, 1.0], 20)
    positions, distances = oracle.knn(values, values[:4], 3)
    assert positions.tolist() == [0, 2, 4] and distances.tolist() == [0.0, 0.0, 0.0]


def test_span_self_time_is_duration_minus_children():
    rec = SpanRecorder()
    with rec.span("op", 7):
        with rec.span("child"):
            pass
        with rec.span("child"):
            pass
    rec.spans[0][1:3] = [0.0, 10.0]
    rec.spans[1][1:3] = [1.0, 4.0]
    rec.spans[2][1:3] = [5.0, 6.0]
    assert rec.self_times("op").tolist() == [6.0]
    assert rec.durations("child").tolist() == [3.0, 1.0]
    assert rec.share("child", "op") == pytest.approx(0.4)
    assert [row[3] for row in rec.spans] == [-1, 0, 0]
    assert {row[4] for row in rec.spans} == {7}


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/twinbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_every_metric_and_is_correct(workload):
    lines, result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    def digest(lines):
        return [line for line in lines if line.startswith("inputs_sha256")]

    assert digest(lines) and digest(lines) == digest(smoke(workload, trace=0)[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    _, result = smoke(workload, trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["metrics"]["engine.cache.hit_rate"]["value"] > 0
    with open(os.path.join(HERE, ".work", f"trace-{workload}.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["columns"] == ["name", "start", "end", "parent", "op"] and trace["spans"]


def test_no_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "twinbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_cli("--workload", "twin_sparse", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=str(tmp_path),
                   script=str(tmp_path / "benchmarks" / "twinbench" / "run.py"))
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------------
# deletion candidates
# ----------------------------------------------------------------------
def test_probes_measure_the_replacement_when_an_entry_point_is_gone(tmp_path, monkeypatch):
    from repro.engine import executor
    from repro.persistence import serializer

    monkeypatch.delattr(repro.FrozenTSIndex, "search_batch")
    monkeypatch.setattr(executor, "EXECUTORS", ("thread",))
    monkeypatch.setattr(serializer, "ARCHIVE_FORMATS", ("raw",))
    cfg = workloads.Config("twin_sparse", 2, 0.5, workloads.SMOKE, str(tmp_path))
    out = probes.run(cfg, SpanRecorder())
    assert out.failed == 0
    for name in ("core.frozen.batch_ms_per_query", "engine.procpool.search_ms_p50",
                 "persistence.serializer.save_npz_ms",
                 "persistence.serializer.npz_bytes_per_window"):
        assert "absent: measured" in out.metrics[name].note
        assert np.isfinite(out.metrics[name].value)
    assert out.metrics["core.frozen.search_ms_p50"].note == ""


def test_pointer_tree_probe_without_tsindex_search(tmp_path, monkeypatch):
    monkeypatch.delattr(repro.TSIndex, "search")
    cfg = workloads.Config("twin_sparse", 2, 0.5, workloads.SMOKE, str(tmp_path))
    data = workloads.twin_inputs(cfg, workloads.SPARSE_FRACTION)
    probe = probes.Probe(workloads.Outcome(), SpanRecorder(), cfg, home=False)
    probes.pointer_tree(probe, data, repro.WindowSource(data.series, workloads.LENGTH, "global"))
    assert "absent: measured" in probe.out.metrics["core.tsindex.search_ms_p50"].note
