"""Tests for the benchmark artifact envelope, the EXPERIMENTS.md record
generator, and the README's benchmark catalog."""

import json
import pathlib
import re
import subprocess

import pytest

from repro.bench import experiments as exp
from repro.bench import record
from repro.exceptions import InvalidParameterError

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ctx():
    return exp.ExperimentContext(dataset="insect", scale=0.02, query_count=2)


class TestSections:
    def test_figure_section_contains_series(self, ctx):
        data = exp.run_figure4(
            ctx, epsilons=(0.5, 1.0), methods=("sweepline", "tsindex")
        )
        section = record.figure_section(data)
        assert "### fig4 / insect" in section
        assert "tsindex (ms)" in section
        assert "Shape checks:" in section

    def test_claims_cover_all_experiments(self):
        assert set(record.PAPER_CLAIMS) >= {
            "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "intro",
        }

    def test_run_dataset_sections(self, ctx):
        sections = record.run_dataset(ctx)
        text = "\n".join(sections)
        for marker in ("intro /", "fig4 /", "fig5 /", "fig6 /", "fig7 /", "fig8 /"):
            assert marker in text

    def test_generate_markdown_header(self, ctx):
        document = record.generate_markdown([ctx])
        assert document.startswith("## Measured results")
        assert "Dataset `insect`" in document
        assert "Paper claims referenced above" in document


class TestCli:
    def test_writes_file(self, tmp_path):
        output = tmp_path / "record.md"
        code = record.main(
            [
                "--output", str(output),
                "--queries", "2",
                "--scale-insect", "0.02",
                "--scale-eeg", "0.003",
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "Dataset `insect`" in text
        assert "Dataset `eeg`" in text

    def test_stdout(self, capsys):
        code = record.main(
            [
                "--queries", "1",
                "--scale-insect", "0.02",
                "--scale-eeg", "0.003",
            ]
        )
        assert code == 0
        assert "Measured results" in capsys.readouterr().out


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
