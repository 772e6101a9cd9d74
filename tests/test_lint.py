"""Tests for the project linter (:mod:`repro.lint`).

Each checker gets fixture-driven positive cases (the violation fires on
a minimal offending tree) and negative cases (idiomatic code stays
clean), plus the meta-test that the *real* source tree lints clean —
the CI gate this suite exists to keep honest.
"""

import json
import pathlib
import shutil
import subprocess

import pytest

from repro.cli import main as cli_main
from repro.exceptions import InvalidParameterError
from repro.lint import CHECKERS, run_lint, tree_from_sources


def violations(sources, checks):
    """Run ``checks`` over an in-memory tree; return the report."""
    return run_lint(tree=tree_from_sources(sources), checks=checks)


def lines_of(report):
    return [violation.line for violation in report.violations]


# ----------------------------------------------------------------------
# failpoint-sites
# ----------------------------------------------------------------------
REGISTRY = 'SITES = frozenset({"wal.append", "segment.write"})\n'


class TestFailpointSites:
    CHECKS = ["failpoint-sites"]

    def test_clean_when_sites_and_registry_agree(self):
        report = violations(
            {
                "faults/failpoints.py": REGISTRY,
                "live/wal.py": 'failpoint("wal.append")\n',
                "live/segment.py": 'failpoint("segment.write", n=1)\n',
            },
            self.CHECKS,
        )
        assert report.ok

    def test_unknown_site_flagged(self):
        report = violations(
            {
                "faults/failpoints.py": REGISTRY,
                "live/wal.py": (
                    'failpoint("wal.append")\n'
                    'failpoint("wal.apend")\n'  # typo'd rename
                    'failpoint("segment.write")\n'
                ),
            },
            self.CHECKS,
        )
        assert len(report.violations) == 1
        assert report.violations[0].line == 2
        assert "wal.apend" in report.violations[0].message

    def test_registered_but_unused_site_flagged(self):
        report = violations(
            {
                "faults/failpoints.py": REGISTRY,
                "live/wal.py": 'failpoint("wal.append")\n',
            },
            self.CHECKS,
        )
        assert len(report.violations) == 1
        assert report.violations[0].path == "faults/failpoints.py"
        assert "segment.write" in report.violations[0].message

    def test_non_literal_site_name_flagged(self):
        report = violations(
            {
                "faults/failpoints.py": REGISTRY,
                "live/wal.py": (
                    'name = "wal.append"\n'
                    "failpoint(name)\n"
                    'failpoint("wal.append")\n'
                    'failpoint("segment.write")\n'
                ),
            },
            self.CHECKS,
        )
        assert lines_of(report) == [2]
        assert "string literal" in report.violations[0].message

    def test_missing_registry_is_itself_a_violation(self):
        report = violations(
            {"live/wal.py": 'failpoint("wal.append")\n'}, self.CHECKS
        )
        assert not report.ok
        assert "SITES" in report.violations[0].message


# ----------------------------------------------------------------------
# crash-safety
# ----------------------------------------------------------------------
class TestCrashSafety:
    CHECKS = ["crash-safety"]

    def test_bare_except_flagged(self):
        report = violations(
            {"a.py": "try:\n    x = 1\nexcept:\n    x = 2\n"}, self.CHECKS
        )
        assert lines_of(report) == [3]
        assert "bare `except:`" in report.violations[0].message

    def test_except_base_exception_flagged(self):
        code = "try:\n    x = 1\nexcept BaseException:\n    x = 2\n"
        report = violations({"a.py": code}, self.CHECKS)
        assert lines_of(report) == [3]

    def test_tuple_handler_listing_base_exception_flagged(self):
        code = (
            "try:\n    x = 1\n"
            "except (ValueError, BaseException):\n    x = 2\n"
        )
        report = violations({"a.py": code}, self.CHECKS)
        assert lines_of(report) == [3]

    def test_annotate_and_reraise_allowed(self):
        code = (
            "try:\n    x = 1\n"
            "except BaseException as exc:\n"
            "    note(exc)\n"
            "    raise\n"
        )
        assert violations({"a.py": code}, self.CHECKS).ok

    def test_reraise_of_caught_name_allowed(self):
        code = (
            "try:\n    x = 1\n"
            "except BaseException as exc:\n"
            "    raise exc\n"
        )
        assert violations({"a.py": code}, self.CHECKS).ok

    def test_except_exception_is_fine(self):
        code = "try:\n    x = 1\nexcept Exception:\n    x = 2\n"
        assert violations({"a.py": code}, self.CHECKS).ok

    def test_except_and_pass_on_durability_path_flagged(self):
        code = "try:\n    fsync()\nexcept OSError:\n    pass\n"
        report = violations({"live/wal.py": code}, self.CHECKS)
        assert lines_of(report) == [3]
        assert "durability" in report.violations[0].message

    def test_except_and_pass_in_instrumented_module_flagged(self):
        code = (
            'failpoint("wal.append")\n'
            "try:\n    write()\nexcept OSError:\n    pass\n"
        )
        report = violations({"bench/run.py": code}, self.CHECKS)
        assert lines_of(report) == [4]

    def test_except_and_pass_elsewhere_tolerated(self):
        code = "try:\n    probe()\nexcept OSError:\n    pass\n"
        assert violations({"bench/run.py": code}, self.CHECKS).ok

    def test_suppression_with_reason_silences(self):
        code = (
            "try:\n    fsync()\n"
            "except OSError:  # lint: disable=crash-safety directory fsync\n"
            "    pass\n"
        )
        report = violations({"live/wal.py": code}, self.CHECKS)
        assert report.ok
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
LOCKED_CLASS = """\
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []  # lint: guarded-by(_lock)
        self._count = 0  # lint: guarded-by(_lock)

    def add(self, item):
        with self._lock:
            self._items.append(item)
            self._count += 1
"""


class TestLockDiscipline:
    CHECKS = ["lock-discipline"]

    def test_locked_mutations_clean(self):
        assert violations({"a.py": LOCKED_CLASS}, self.CHECKS).ok

    def test_unlocked_mutation_flagged(self):
        code = LOCKED_CLASS + (
            "\n    def sneak(self, item):\n"
            "        self._items.append(item)\n"
        )
        report = violations({"a.py": code}, self.CHECKS)
        assert len(report.violations) == 1
        assert "_items" in report.violations[0].message
        assert "sneak" in report.violations[0].message

    def test_unlocked_augassign_flagged(self):
        code = LOCKED_CLASS + (
            "\n    def bump(self):\n        self._count += 1\n"
        )
        report = violations({"a.py": code}, self.CHECKS)
        assert len(report.violations) == 1
        assert "_count" in report.violations[0].message

    def test_unlocked_subscript_store_flagged(self):
        code = LOCKED_CLASS + (
            "\n    def poke(self):\n        self._items[0] = None\n"
        )
        report = violations({"a.py": code}, self.CHECKS)
        assert len(report.violations) == 1

    def test_init_is_exempt(self):
        # The declarations in __init__ are themselves unlocked stores.
        assert violations({"a.py": LOCKED_CLASS}, self.CHECKS).ok

    def test_holds_annotation_exempts_method(self):
        code = LOCKED_CLASS + (
            "\n    def _add_locked(self, item):"
            "  # lint: holds(_lock) called by add()\n"
            "        self._items.append(item)\n"
        )
        assert violations({"a.py": code}, self.CHECKS).ok

    def test_wrong_lock_does_not_count(self):
        code = LOCKED_CLASS + (
            "\n    def wrong(self, item):\n"
            "        with self._other_lock:\n"
            "            self._items.append(item)\n"
        )
        report = violations({"a.py": code}, self.CHECKS)
        assert len(report.violations) == 1

    def test_undeclared_attributes_unchecked(self):
        code = LOCKED_CLASS + (
            "\n    def free(self):\n        self._scratch = 1\n"
        )
        assert violations({"a.py": code}, self.CHECKS).ok


# ----------------------------------------------------------------------
# single-call-site / cpu-count / bench-writes / wall-clock
# ----------------------------------------------------------------------
class TestSingleCallSite:
    CHECKS = ["single-call-site"]

    def test_canonical_callers_allowed(self):
        report = violations(
            {
                "query/spec.py": "prepared = source.prepare_query(values)\n",
                "core/windows.py": "w = self.prepare_query(values)\n",
            },
            self.CHECKS,
        )
        assert report.ok

    def test_rogue_caller_flagged(self):
        report = violations(
            {"indices/isax.py": "q = source.prepare_query(values)\n"},
            self.CHECKS,
        )
        assert lines_of(report) == [1]
        assert "prepare_query" in report.violations[0].message

    def test_part_loop_has_one_home(self):
        """``fan_out`` belongs to ``query/parts.py``; query-level batch
        loops (parts, planner) may still ``map_with_executor``."""
        report = violations(
            {
                "_util.py": "r = fan_out(e, f, xs)\n",
                "query/parts.py": (
                    "a = fan_out(e, f, xs)\nb = map_with_executor(e, f, xs)\n"
                ),
                "query/planner.py": "b = map_with_executor(e, f, xs)\n",
            },
            self.CHECKS,
        )
        assert report.ok

    @pytest.mark.parametrize(
        "rel", ["engine/sharding.py", "live/index.py", "query/planner.py"]
    )
    def test_second_part_loop_flagged(self, rel):
        report = violations(
            {rel: "x = 1\nout = fan_out(pool, fn, shards, part='shard')\n"},
            self.CHECKS,
        )
        assert lines_of(report) == [2]
        assert "PartSet" in report.violations[0].message

    def test_plane_level_map_flagged(self):
        report = violations(
            {"live/index.py": "r = map_with_executor(pool, one, segments)\n"},
            self.CHECKS,
        )
        assert lines_of(report) == [1]
        assert "map_with_executor" in report.violations[0].message


class TestCpuCount:
    CHECKS = ["cpu-count"]

    def test_os_cpu_count_flagged(self):
        report = violations(
            {"engine/executor.py": "import os\nn = os.cpu_count()\n"},
            self.CHECKS,
        )
        assert lines_of(report) == [2]
        assert "available_cpu_count" in report.violations[0].message

    def test_shim_module_allowed(self):
        code = "import os\nn = os.cpu_count() or 1\n"
        assert violations({"_util.py": code}, self.CHECKS).ok


class TestBenchWrites:
    CHECKS = ["bench-writes"]

    def test_direct_open_flagged(self):
        code = 'f = open("BENCH_scaling.json", "w")\n'
        report = violations({"bench/reporting.py": code}, self.CHECKS)
        assert lines_of(report) == [1]
        assert "write_artifact" in report.violations[0].message

    def test_pathlib_write_text_flagged(self):
        code = 'Path("out/BENCH_table1.json").write_text(payload)\n'
        report = violations({"bench/experiments.py": code}, self.CHECKS)
        assert lines_of(report) == [1]

    def test_envelope_module_allowed(self):
        code = 'f = open("BENCH_scaling.json", "w")\n'
        assert violations({"bench/record.py": code}, self.CHECKS).ok

    def test_default_argument_mention_tolerated(self):
        # argparse defaults *name* the artifact; they don't write it.
        code = 'parser.add_argument("--output", default="BENCH_scaling.json")\n'
        assert violations({"cli.py": code}, self.CHECKS).ok


class TestWallClock:
    CHECKS = ["wall-clock"]

    def test_time_time_flagged(self):
        code = "import time\nstart = time.time()\n"
        report = violations({"a.py": code}, self.CHECKS)
        assert lines_of(report) == [2]
        assert "perf_counter" in report.violations[0].message

    def test_bare_time_after_from_import_flagged(self):
        code = "from time import time\nstart = time()\n"
        report = violations({"a.py": code}, self.CHECKS)
        assert lines_of(report) == [2]

    def test_perf_counter_clean(self):
        code = "import time\nstart = time.perf_counter()\n"
        assert violations({"a.py": code}, self.CHECKS).ok

    def test_epoch_timestamp_suppression(self):
        code = (
            "import time\n"
            "stamp = time.time()  # lint: disable=wall-clock epoch stamp\n"
        )
        report = violations({"a.py": code}, self.CHECKS)
        assert report.ok
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# public-api
# ----------------------------------------------------------------------
CLEAN_API = {
    "__init__.py": (
        "from .core import twin_search\n"
        '__all__ = ["twin_search"]\n'
    ),
    "core/__init__.py": (
        "def twin_search(series, query, epsilon):\n"
        '    """Find twin subsequences."""\n'
        "    return []\n"
        '__all__ = ["twin_search"]\n'
    ),
}


class TestPublicApi:
    CHECKS = ["public-api"]

    def test_complete_surface_clean(self):
        assert violations(CLEAN_API, self.CHECKS).ok

    def test_missing_docstring_flagged(self):
        sources = dict(CLEAN_API)
        sources["core/__init__.py"] = (
            "def twin_search(series, query, epsilon):\n"
            "    return []\n"
            '__all__ = ["twin_search"]\n'
        )
        report = violations(sources, self.CHECKS)
        assert len(report.violations) == 1
        assert "docstring" in report.violations[0].message
        assert report.violations[0].path == "core/__init__.py"

    def test_duplicate_export_flagged(self):
        sources = dict(CLEAN_API)
        sources["__init__.py"] = (
            "from .core import twin_search\n"
            '__all__ = ["twin_search", "twin_search"]\n'
        )
        report = violations(sources, self.CHECKS)
        assert any("duplicate" in v.message for v in report.violations)

    def test_unbound_export_flagged(self):
        sources = dict(CLEAN_API)
        sources["__init__.py"] = '__all__ = ["twin_search"]\n'
        report = violations(sources, self.CHECKS)
        assert any("never" in v.message for v in report.violations)

    def test_export_without_home_flagged(self):
        sources = dict(CLEAN_API)
        sources["core/__init__.py"] = (
            "def twin_search(series, query, epsilon):\n"
            '    """Find twin subsequences."""\n'
            "    return []\n"
        )
        report = violations(sources, self.CHECKS)
        assert any("no module" in v.message for v in report.violations)

    def test_export_with_two_homes_flagged(self):
        sources = dict(CLEAN_API)
        sources["indices/__init__.py"] = (
            "from ..core import twin_search\n"
            '__all__ = ["twin_search"]\n'
        )
        report = violations(sources, self.CHECKS)
        assert any("exactly one" in v.message for v in report.violations)

    def test_root_defined_names_need_no_home(self):
        sources = {
            "__init__.py": (
                "def twin_search(series, query, epsilon):\n"
                '    """Find twin subsequences."""\n'
                "    return []\n"
                '__all__ = ["twin_search"]\n'
            )
        }
        assert violations(sources, self.CHECKS).ok


# ----------------------------------------------------------------------
# runner / report plumbing
# ----------------------------------------------------------------------
class TestRunner:
    def test_unknown_checker_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_lint(tree=tree_from_sources({}), checks=["nope"])

    def test_check_subset_runs_only_selected(self):
        # A tree offending two checkers, with only one selected.
        sources = {"a.py": "import time\nt = time.time()\nn = cpu_count()\n"}
        report = violations(sources, ["cpu-count"])
        assert report.checks == ("cpu-count",)
        assert {v.checker for v in report.violations} == {"cpu-count"}

    def test_report_shape(self):
        sources = {"a.py": "import time\nt = time.time()\n"}
        report = violations(sources, ["wall-clock"])
        assert report.exit_code == 1 and not report.ok
        text = report.format_text()
        assert "a.py:2: [wall-clock]" in text
        assert "1 violation(s)" in text
        payload = report.as_dict()
        assert payload["schema"] == "repro.lint/1"
        assert payload["violations"][0]["line"] == 2

    def test_violations_sorted_by_location(self):
        sources = {
            "b.py": "import time\nt = time.time()\n",
            "a.py": "import time\nt = time.time()\nu = time.time()\n",
        }
        report = violations(sources, ["wall-clock"])
        assert [(v.path, v.line) for v in report.violations] == [
            ("a.py", 2), ("a.py", 3), ("b.py", 2),
        ]

    def test_every_checker_is_registered_consistently(self):
        for name, checker in CHECKERS.items():
            assert checker.name == name
            assert checker.description
            assert callable(checker.check)


# ----------------------------------------------------------------------
# the meta-test: the real tree lints clean
# ----------------------------------------------------------------------
class TestRealTree:
    def test_repro_source_tree_is_clean(self):
        """`repro lint` over the installed package exits 0 — the same
        gate CI runs. A failure here means a real invariant regressed
        (or a new checker landed without fixing its findings)."""
        report = run_lint()
        assert report.ok, "\n" + report.format_text()
        assert report.files > 50  # the real tree, not an empty dir

    def test_real_tree_uses_suppressions_sparingly(self):
        # Every suppression is a documented exception; the count only
        # moves when one is added or removed deliberately.
        report = run_lint()
        assert report.suppressed <= 12


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_lint_command_exits_zero_on_clean_tree(self, capsys):
        assert cli_main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_list_prints_checker_catalog(self, capsys):
        assert cli_main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for name in CHECKERS:
            assert name in out

    def test_json_format_round_trips(self, capsys):
        assert cli_main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["schema"] == "repro.lint/1"

    def test_check_selection(self, capsys):
        assert cli_main(["lint", "--check", "wall-clock"]) == 0
        assert "wall-clock" in capsys.readouterr().out

    def test_unknown_checker_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--check", "made-up"])

    def test_lint_on_violating_root_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "__init__.py").write_text("__all__ = []\n")
        (tmp_path / "clock.py").write_text("import time\nt = time.time()\n")
        assert cli_main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "clock.py:2: [wall-clock]" in out


class TestToolConfig:
    """The ruff/mypy wiring in pyproject.toml stays consistent with the
    lint gate (both run in the CI lint job; neither tool ships in the
    test environment, so real invocations are availability-gated)."""

    @pytest.fixture(scope="class")
    def pyproject(self):
        import tomllib

        root = pathlib.Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)

    def test_ruff_selects_errors_pyflakes_and_import_order(self, pyproject):
        select = pyproject["tool"]["ruff"]["lint"]["select"]
        assert {"E4", "E7", "E9", "F", "I"} <= set(select)

    def test_mypy_strict_tier_covers_the_serving_packages(self, pyproject):
        files = pyproject["tool"]["mypy"]["files"]
        assert {f"src/repro/{pkg}" for pkg in ("query", "obs", "faults")} <= set(files)
        overrides = pyproject["tool"]["mypy"]["overrides"]
        strict = [o for o in overrides if o.get("disallow_untyped_defs")]
        modules = {m for o in strict for m in o["module"]}
        assert {"repro.query.*", "repro.obs.*", "repro.faults.*"} <= modules

    @pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
    def test_ruff_clean(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            cwd=root, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
    def test_mypy_clean(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            ["mypy"], cwd=root, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
