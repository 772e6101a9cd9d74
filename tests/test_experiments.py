"""Tests for the per-figure experiment definitions and the run step.

These run at very small scale (the point is wiring, not performance);
the shape checks themselves are exercised but only the robust ones are
asserted.
"""

import dataclasses
import json

import pytest

from repro.bench import experiments as exp


@pytest.fixture(scope="module")
def ctx():
    return exp.ExperimentContext(dataset="insect", scale=0.03, query_count=3)


class TestTables:
    def test_table1_rows(self):
        rows = exp.table1_rows()
        assert [row["dataset"] for row in rows] == ["insect", "eeg"]
        assert rows[0]["n"] == 64_436
        assert rows[1]["n"] == 1_801_999

    def test_table2_rows(self):
        rows = exp.table2_rows()
        assert rows[0]["default"] == 10
        assert rows[1]["default"] == 100


class TestContext:
    def test_series_cached(self, ctx):
        assert ctx.series is ctx.series

    def test_source_cached(self, ctx):
        assert ctx.source(60, "global") is ctx.source(60, "global")

    def test_method_cached(self, ctx):
        first = ctx.method("kvindex", 60, "global")
        assert ctx.method("kvindex", 60, "global") is first

    def test_workload_size(self, ctx):
        assert len(ctx.workload(60, "global")) == 3

    def test_epsilon_grids(self, ctx):
        assert ctx.epsilons("global") == (0.5, 0.75, 1.0, 1.25, 1.5)
        assert ctx.default_epsilon("global") == 0.75
        raw = ctx.epsilons("none")
        assert len(raw) == 5
        assert all(b > a for a, b in zip(raw, raw[1:]))


def _counters(payload):
    """Everything in a run's payload that two runs at one seed must
    agree on: all of it but the timings."""
    timed = {"avg_query_ms", "build_s", "series_ms", "wall_seconds"}

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in timed}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    envelope = {"schema", "kind", "meta"}
    plain = json.loads(json.dumps(payload))  # tuples -> lists, as on disk
    return strip({k: v for k, v in plain.items() if k not in envelope})


class TestFigureRuns:
    """The run step's output at smoke scale (``smoke_run``: insect 0.02,
    EEG 0.001, 8 queries) — the code that produced the committed file."""

    @pytest.fixture(scope="class")
    def insect(self, smoke_run):
        return smoke_run[1]["datasets"]["insect"]

    def test_figure4_small(self, insect):
        data = exp.FigureData(**insect["fig4"])
        assert tuple(data.sweep_values) == (0.5, 0.75, 1.0, 1.25, 1.5)
        assert set(data.series_ms) == set(exp.ALL_METHODS) | {exp.FROZEN_SERIES}
        assert len(data.series_ms["tsindex"]) == 5
        assert len(data.rows) == 5 * 5
        assert {"matches", "candidates", "nodes_visited", "nodes_pruned",
                "windows", "queries"} <= set(data.rows[0])
        assert exp.check_figure_shape(data)["tsindex_faster_than_sweepline"]

    def test_frozen_series_answers_like_the_pointer_tree(self, insect):
        for figure in ("fig4", "fig5", "fig6", "fig7"):
            by_method = {}
            for row in insect[figure]["rows"]:
                by_method.setdefault(row["method"], []).append(
                    (row["matches"], row["candidates"])
                )
            assert by_method["frozen"] == by_method["tsindex"]
            # reported, never judged
            checks = exp.check_figure_shape(exp.FigureData(**insect[figure]))
            assert not any("frozen" in claim for claim in checks)

    def test_figure6_excludes_kv(self, smoke_run):
        for section in smoke_run[1]["datasets"].values():
            assert "kvindex" not in section["fig6"]["series_ms"]
            assert "isax" in section["fig6"]["series_ms"]

    def test_figure7_raw_epsilons(self, insect):
        scaled = exp.ExperimentContext(dataset="insect", scale=insect["scale"])
        assert tuple(insect["fig7"]["sweep_values"]) == scaled.epsilons("none")

    def test_figure5_sweeps_length(self, insect):
        assert insect["fig5"]["sweep_name"] == "length"
        assert tuple(insect["fig5"]["sweep_values"]) == exp.TABLE2_LENGTHS

    def test_figure8_rows(self, insect):
        rows = insect["fig8"]
        assert [row["index"] for row in rows] == list(exp.INDEX_METHODS)
        assert all(row["memory_mb"] > 0 for row in rows)
        assert all(row["build_s"] >= 0 for row in rows)
        assert all(row["nodes"] > 0 and row["height"] > 0 for row in rows)
        assert set(exp.check_figure8(rows)) == {
            "kvindex_least_memory", "isax_smaller_than_tsindex",
            "kvindex_fastest_build",
        }

    def test_intro_no_false_negatives(self, smoke_run):
        for section in smoke_run[1]["datasets"].values():
            report = section["intro"]
            assert report["missed_twins"] == 0
            assert report["euclidean_results"] >= report["twin_results"]
            assert "per_query" not in report

    def test_intro_without_twins_has_no_excess_factor(self, ctx, monkeypatch):
        # The factor used to be float("inf"), which json.dump writes as
        # the non-JSON token `Infinity`.
        workload = ctx.workload(60, "global")
        far = dataclasses.replace(
            workload, queries=tuple(q + 1e6 for q in workload.queries)
        )
        monkeypatch.setattr(ctx, "workload", lambda length, normalization: far)
        report = exp.run_intro(ctx, epsilon=0.0, query_count=1, length=60)
        assert report["twin_results"] == 0
        assert report["excess_factor"] is None

    def test_robust_claims_hold(self, smoke_run):
        from repro.bench import record

        assert record.robust_failures(smoke_run[1]) == []

    def test_counters_reproduce_at_one_seed(self, smoke_run):
        payload = smoke_run[1]
        again = exp.run_all(
            scales={
                name: section["scale"]
                for name, section in payload["datasets"].items()
            },
            query_count=payload["config"]["queries"],
            seed=payload["meta"]["seed"],
        )
        assert _counters(again) == _counters(payload)

    def test_bulk_verification_equivalent_counts(self, ctx):
        fast = exp.run_figure4(
            ctx, epsilons=(0.75,), methods=("tsindex",), verification="bulk"
        )
        slow = exp.run_figure4(
            ctx, epsilons=(0.75,), methods=("tsindex",),
            verification="per_candidate",
        )
        assert fast.rows[0]["matches"] == slow.rows[0]["matches"]


class TestShapeChecks:
    def test_all_pass_for_dominant_series(self):
        data = exp.FigureData(
            figure="fig4",
            dataset="insect",
            sweep_name="epsilon",
            sweep_values=(0.5, 1.0),
            series_ms={"tsindex": [1.0, 2.0], "sweepline": [10.0, 10.2]},
            rows=[],
        )
        checks = exp.check_figure_shape(data)
        assert checks["tsindex_faster_than_sweepline"]
        assert checks["sweepline_flat_in_sweep"]

    def test_fail_detected(self):
        data = exp.FigureData(
            figure="fig4",
            dataset="insect",
            sweep_name="epsilon",
            sweep_values=(0.5, 1.0),
            series_ms={"tsindex": [20.0, 2.0], "sweepline": [10.0, 10.0]},
            rows=[],
        )
        assert not exp.check_figure_shape(data)["tsindex_faster_than_sweepline"]

    def test_fig5_length_trend(self):
        data = exp.FigureData(
            figure="fig5",
            dataset="insect",
            sweep_name="length",
            sweep_values=(50, 250),
            series_ms={"tsindex": [5.0, 3.0]},
            rows=[],
        )
        assert exp.check_figure_shape(data)["tsindex_not_slower_with_length"]
