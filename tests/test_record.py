"""Tests for the benchmark artifact envelope, the evaluate step that
renders EXPERIMENTS.md, and the README's benchmark catalog."""

import json
import pathlib
import re
import subprocess

import pytest

from repro import cli
from repro.bench import record
from repro.exceptions import InvalidParameterError

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def document(smoke_run):
    return record.evaluate(smoke_run[1])


class TestSections:
    def test_figure_section_contains_series(self, document):
        assert "### fig4 / insect" in document
        assert "| epsilon | sweepline (ms) | kvindex (ms) | isax (ms) | tsindex (ms) | frozen (ms) |" in document
        assert "Shape checks: tsindex_faster_than_sweepline: PASS" in document

    def test_claims_cover_all_experiments(self, document):
        assert set(record.PAPER_CLAIMS) >= {
            "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "intro",
        }
        for claim in record.PAPER_CLAIMS.values():
            assert claim in document

    def test_run_dataset_sections(self, document):
        for dataset in ("insect", "eeg"):
            for marker in ("fig4", "fig5", "fig6", "fig7", "fig8"):
                assert f"### {marker} / {dataset}" in document
            for marker in record.EPSILON_FIGURES:
                assert f"### filter ratio: {marker} / {dataset}" in document
        assert "## Intro" in document
        assert "## Tables 1-2" in document
        for deviation in record.DEVIATIONS:
            assert deviation in document

    def test_generate_markdown_header(self, document, smoke_run):
        meta = smoke_run[1]["meta"]
        assert document.startswith("# EXPERIMENTS")
        for named in (
            f"| git rev | {meta['git_rev']}",
            f"| cores / python | {meta['cpu_count']} / ",
            f"| workload seed | {meta['seed']} |",
            "| queries per workload | 8 of length 100 (paper: 100; intro: the first 5), 1 pass",
            "| cost model | `per_candidate` verification |",
            "| `insect` surrogate | scale 0.02, n = 1,289 (paper: 64,436) |",
            "| `eeg` surrogate | scale 0.001, n = 1,802 (paper: 1,801,999) |",
        ):
            assert named in document

    def test_evaluate_reads_nothing_but_the_file(self, document, smoke_run):
        # Pure: the same payload, re-read from disk, renders the same
        # bytes (no clock, no git, no index).
        reread = json.loads(smoke_run[0].read_text(encoding="utf-8"))
        assert record.evaluate(reread) == document

    def test_committed_record_matches_its_data_file(self):
        """No drift: EXPERIMENTS.md is ``evaluate(EXPERIMENTS.json)``,
        byte for byte (the data file lives at the repository root,
        beside the document; it is not a ``BENCH_*.json``)."""
        payload = json.loads((ROOT / "EXPERIMENTS.json").read_text(encoding="utf-8"))
        committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert record.evaluate(payload) == committed
        assert record.robust_failures(payload) == []


class TestCli:
    def test_writes_file(self, tmp_path, smoke_run, document):
        output = tmp_path / "record.md"
        code = cli.main(
            ["evaluate", "--data", str(smoke_run[0]), "--output", str(output)]
        )
        assert code == 0
        assert output.read_text(encoding="utf-8") == document

    def test_stdout(self, capsys, smoke_run, document):
        assert cli.main(["evaluate", "--data", str(smoke_run[0])]) == 0
        assert capsys.readouterr().out == document


class TestArtifactEnvelope:
    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        payload = record.write_artifact(
            path, {"section": {"ms": 1.5}}, kind="demo", seed=3
        )
        assert json.loads(path.read_text()) == payload
        assert payload["schema"] == record.ARTIFACT_SCHEMA
        assert payload["kind"] == "demo"
        assert payload["meta"]["seed"] == 3
        assert "cpu_count" in payload["meta"]
        assert payload["section"] == {"ms": 1.5}

    def test_reserved_keys_rejected(self):
        with pytest.raises(InvalidParameterError):
            record.make_artifact({"meta": {}}, kind="demo")

    def test_non_finite_numbers_are_refused(self, tmp_path):
        # json.dump would write the token `Infinity`, which is not JSON.
        path = tmp_path / "demo.json"
        for value in (float("inf"), float("nan")):
            with pytest.raises(InvalidParameterError, match="non-finite"):
                record.write_artifact(path, {"factor": value}, kind="demo")
            assert not path.exists()
        record.write_artifact(path, {"factor": None}, kind="demo")

        def refuse(token):
            raise AssertionError(f"non-JSON token {token}")

        json.loads(path.read_text(), parse_constant=refuse)


class TestBenchmarkCatalog:
    """The README's what-stays table is the catalog of ``benchmarks/``:
    it cannot name a script that is gone, miss one that exists, or sit
    beside a committed ``BENCH_*.json``."""

    def test_readme_table_matches_the_benchmarks_directory(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(benchmarks/bench_\w+\.py)` \|", readme, re.M)
        on_disk = sorted(
            f"benchmarks/{path.name}"
            for path in (ROOT / "benchmarks").glob("bench_*.py")
        )
        assert sorted(rows) == on_disk
        assert (ROOT / "benchmarks" / "twinbench" / "run.py").exists()

    def test_no_benchmark_artifact_is_committed(self):
        # A local ``bench_scaling.py`` run leaves a git-ignored
        # BENCH_scaling.json behind; only tracked files count (outside a
        # git checkout, any file at the root does).
        try:
            tracked = subprocess.run(
                ["git", "ls-files", "BENCH_*.json"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=30,
            ).stdout.split()
        except (OSError, subprocess.SubprocessError):
            tracked = [path.name for path in ROOT.glob("BENCH_*.json")]
        assert tracked == []


class TestDocPointers:
    def test_every_named_root_document_exists(self):
        """Docstrings, comments and the README may only point at an
        upper-case ``.md`` document that exists at the repository root
        (two were cited for ten PRs without ever existing)."""
        named = set()
        files = [ROOT / "README.md"]
        for directory in ("src", "benchmarks", "tests"):
            files += sorted((ROOT / directory).rglob("*.py"))
        for path in files:
            text = path.read_text(encoding="utf-8")
            named.update(re.findall(r"\b[A-Z_]+\.md\b", text))
        assert named >= {"EXPERIMENTS.md", "README.md"}
        assert [name for name in sorted(named) if not (ROOT / name).exists()] == []
