"""Project invariants that no behavioural test holds, checked over ``src/repro``.

Each invariant is one function from parsed sources to findings
(``"path:line: message"``), one test that the real tree has none, and
positive (the violation is found) and negative (idiomatic code passes)
fixture cases. The tree is parsed once per session. Three structured
comments in ``src/`` are the input:

* ``# lint: disable=<invariant> <why>`` on a flagged line accepts it;
* ``# lint: guarded-by(<lock>)`` on an attribute assignment declares the
  attribute lock-guarded;
* ``# lint: holds(<lock>)`` on a ``def`` line declares that every caller
  already holds ``<lock>``.

An invariant belongs here only while a mutation check shows no other
test fails when its violation is planted.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import shutil
import subprocess
import types

import pytest

import repro
from repro.faults import failpoints

ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parent.parent

_DISABLE_RE = re.compile(r"#\s*lint:\s*disable=([\w,-]+)")
_GUARDED_RE = re.compile(r"#\s*lint:\s*guarded-by\((\w+)\)")
_HOLDS_RE = re.compile(r"#\s*lint:\s*holds\((\w+)\)")


class Source:
    """One parsed file: its path under the package root, lines and AST."""

    def __init__(self, rel, text):
        self.rel = rel
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=rel)

    def comment(self, line, pattern):
        """The first group of ``pattern`` on 1-based ``line``, if any."""
        match = pattern.search(self.lines[line - 1])
        return match.group(1) if match else None

    def finding(self, line, invariant, message):
        """``["path:line: message"]``, or ``[]`` when the line carries
        ``# lint: disable=<invariant>``."""
        disabled = self.comment(line, _DISABLE_RE) or ""
        if invariant in disabled.split(","):
            return []
        return [f"{self.rel}:{line}: {message}"]


def sources(files):
    """Parse ``{path: code}`` fixtures."""
    return [Source(rel, text) for rel, text in files.items()]


@pytest.fixture(scope="session")
def repro_tree():
    return [
        Source(path.relative_to(ROOT).as_posix(), path.read_text())
        for path in sorted(ROOT.rglob("*.py"))
    ]


def call_name(node):
    """The called function or attribute name of an ``ast.Call``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def calls(file, name):
    """Every call of ``name`` in ``file``."""
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call) and call_name(node) == name:
            yield node


# ----------------------------------------------------------------------
# failpoint-sites: failpoint() literals and failpoints.SITES agree both
# ways. arm() rejects an unregistered name; this holds the call side, so
# a renamed site cannot turn its armed fault tests into silent no-ops.
# ----------------------------------------------------------------------
def failpoint_sites(files, sites=failpoints.SITES):
    out, used = [], set()
    for file in files:
        if file.rel == "faults/failpoints.py":
            continue  # the framework itself, not an instrumented site
        for node in calls(file, "failpoint"):
            name = node.args[0] if node.args else None
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
                out += file.finding(
                    node.lineno, "failpoint-sites",
                    "failpoint site name must be a string literal, so it "
                    "can be matched against failpoints.SITES",
                )
            elif name.value not in sites:
                out += file.finding(
                    node.lineno, "failpoint-sites",
                    f"unknown failpoint site {name.value!r}: not in "
                    "failpoints.SITES, so no test can arm it",
                )
            else:
                used.add(name.value)
    out += [
        f"faults/failpoints.py:0: registered failpoint site {site!r} has "
        "no call site; remove the entry or restore the call"
        for site in sorted(set(sites) - used)
    ]
    return out


class TestFailpointSites:
    SITES = frozenset({"wal.append", "segment.write"})

    def check(self, files):
        return failpoint_sites(sources(files), self.SITES)

    def test_real_tree(self, repro_tree):
        assert failpoint_sites(repro_tree) == []

    def test_clean_when_sites_and_registry_agree(self):
        assert self.check({
            "live/wal.py": 'failpoint("wal.append")\n',
            "live/segment.py": 'failpoint("segment.write", n=1)\n',
        }) == []

    def test_unknown_site_flagged(self):
        found = self.check({
            "live/wal.py": (
                'failpoint("wal.append")\n'
                'failpoint("wal.apend")\n'  # typo'd rename
                'failpoint("segment.write")\n'
            ),
        })
        assert len(found) == 1
        assert found[0].startswith("live/wal.py:2:") and "wal.apend" in found[0]

    def test_registered_but_unused_site_flagged(self):
        found = self.check({"live/wal.py": 'failpoint("wal.append")\n'})
        assert len(found) == 1
        assert found[0].startswith("faults/failpoints.py") and "segment.write" in found[0]

    def test_non_literal_site_name_flagged(self):
        found = self.check({
            "live/wal.py": (
                'name = "wal.append"\n'
                "failpoint(name)\n"
                'failpoint("wal.append")\n'
                'failpoint("segment.write")\n'
            ),
        })
        assert len(found) == 1
        assert found[0].startswith("live/wal.py:2:") and "string literal" in found[0]


# ----------------------------------------------------------------------
# crash-safety: SimulatedCrashError derives from BaseException so that it
# unwinds like a kill -9. A bare `except:` or `except BaseException` must
# end in an unconditional re-raise, and an except-and-pass on a
# durability path or in a failpoint-instrumented module must not absorb
# injected IO errors. No other test sees a handler that swallows only
# the crash.
# ----------------------------------------------------------------------
def exception_names(node):
    """The exception type names an ``except`` clause catches."""
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in exception_names(element)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def reraises(handler):
    """Whether the handler's last top-level statement re-raises what it
    caught (a bare ``raise`` or ``raise <caught name>``), so every path
    through it ends in that raise."""
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and (
        last.exc is None
        or (isinstance(last.exc, ast.Name) and last.exc.id == handler.name)
    )


def crash_safety(files):
    out = []
    for file in files:
        sensitive = file.rel.startswith(("live/", "persistence/")) or any(
            calls(file, "failpoint")
        )
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = exception_names(node.type)
            if (node.type is None or "BaseException" in caught) and not reraises(node):
                what = "bare `except:`" if node.type is None else "`except BaseException`"
                out += file.finding(
                    node.lineno, "crash-safety",
                    f"{what} swallows SimulatedCrashError, breaking the "
                    "kill-and-recover contract; end it with `raise` or "
                    "narrow the handler",
                )
            elif sensitive and node.type is not None and all(
                isinstance(statement, ast.Pass)
                or (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
                for statement in node.body
            ):
                out += file.finding(
                    node.lineno, "crash-safety",
                    f"except-and-pass on {' and '.join(caught)} in a durability "
                    "or failpoint-instrumented module absorbs injected "
                    "faults; handle the error or let it propagate",
                )
    return out


class TestCrashSafety:
    def check(self, code, rel="a.py"):
        return crash_safety(sources({rel: code}))

    def test_real_tree(self, repro_tree):
        assert crash_safety(repro_tree) == []

    def test_bare_except_flagged(self):
        found = self.check("try:\n    x = 1\nexcept:\n    x = 2\n")
        assert len(found) == 1
        assert found[0].startswith("a.py:3:") and "bare `except:`" in found[0]

    def test_except_base_exception_flagged(self):
        found = self.check("try:\n    x = 1\nexcept BaseException:\n    x = 2\n")
        assert len(found) == 1 and found[0].startswith("a.py:3:")

    def test_tuple_handler_listing_base_exception_flagged(self):
        found = self.check("try:\n    x = 1\nexcept (ValueError, BaseException):\n    x = 2\n")
        assert len(found) == 1 and found[0].startswith("a.py:3:")

    def test_conditional_reraise_flagged(self):
        # A raise on one path is not a raise on every path.
        found = self.check(
            "try:\n    x = 1\nexcept BaseException as exc:\n"
            "    if isinstance(exc, Exception):\n        raise\n"
        )
        assert len(found) == 1 and found[0].startswith("a.py:3:")

    def test_raise_in_nested_function_flagged(self):
        found = self.check(
            "try:\n    x = 1\nexcept BaseException:\n"
            "    def later():\n        raise\n"
        )
        assert len(found) == 1 and found[0].startswith("a.py:3:")

    def test_annotate_and_reraise_allowed(self):
        assert self.check(
            "try:\n    x = 1\nexcept BaseException as exc:\n    note(exc)\n    raise\n"
        ) == []

    def test_reraise_of_caught_name_allowed(self):
        assert self.check("try:\n    x = 1\nexcept BaseException as exc:\n    raise exc\n") == []

    def test_except_exception_is_fine(self):
        assert self.check("try:\n    x = 1\nexcept Exception:\n    x = 2\n") == []

    def test_except_and_pass_on_durability_path_flagged(self):
        found = self.check("try:\n    fsync()\nexcept OSError:\n    pass\n", rel="live/wal.py")
        assert len(found) == 1
        assert found[0].startswith("live/wal.py:3:") and "durability" in found[0]

    def test_except_and_pass_in_instrumented_module_flagged(self):
        found = self.check(
            'failpoint("wal.append")\ntry:\n    write()\nexcept OSError:\n    pass\n',
            rel="bench/run.py",
        )
        assert len(found) == 1 and found[0].startswith("bench/run.py:4:")

    def test_except_and_pass_elsewhere_tolerated(self):
        assert self.check("try:\n    probe()\nexcept OSError:\n    pass\n", rel="bench/run.py") == []

    def test_suppression_with_reason_silences(self):
        code = (
            "try:\n    fsync()\n"
            "except OSError:  # lint: disable=crash-safety directory fsync\n"
            "    pass\n"
        )
        assert self.check(code, rel="live/wal.py") == []
        assert len(self.check(code.replace("disable=", "note="), rel="live/wal.py")) == 1


# ----------------------------------------------------------------------
# lock-discipline: an attribute declared `# lint: guarded-by(_lock)` is
# mutated only lexically inside `with self._lock:`, in a method marked
# `# lint: holds(_lock)`, or in __init__ (the object is not yet shared).
# ----------------------------------------------------------------------
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "sort", "update",
})


def self_attribute(node):
    """``X`` when ``node`` is ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def store_root(node):
    """``X`` for ``self.X``, ``self.X[k]``, ``self.X.field`` and deeper."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        attr = self_attribute(node)
        if attr is not None:
            return attr
        node = node.value
    return None


def mutations(node, held):
    """``(line, attribute, held locks)`` for every store or mutating call
    under ``node``, tracking the ``with self.<lock>:`` blocks around it."""
    if isinstance(node, ast.With):
        held = held | {self_attribute(item.context_expr) for item in node.items}
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, ast.AugAssign) or (
        isinstance(node, ast.AnnAssign) and node.value is not None
    ):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATORS:
            targets = [node.func.value]
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        else:
            yield node.lineno, store_root(target), held
    for child in ast.iter_child_nodes(node):
        yield from mutations(child, held)


def lock_discipline(files):
    out = []
    for file in files:
        for cls in (n for n in ast.walk(file.tree) if isinstance(n, ast.ClassDef)):
            guarded = {}
            for node in ast.walk(cls):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    lock = file.comment(node.lineno, _GUARDED_RE)
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        name = self_attribute(target) or getattr(target, "id", None)
                        if lock and name:
                            guarded[name] = lock
            if not guarded:
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                    continue
                holds = {file.comment(method.lineno, _HOLDS_RE)}
                for statement in method.body:
                    for line, attr, held in mutations(statement, holds):
                        lock = guarded.get(attr)
                        if lock is not None and lock not in held:
                            out += file.finding(
                                line, "lock-discipline",
                                f"{attr!r} is guarded-by({lock}) but "
                                f"{method.name}() mutates it without holding "
                                f"self.{lock}; wrap it in `with self.{lock}:` "
                                f"or mark the method `# lint: holds({lock})`",
                            )
    return out


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
    def check(self, code):
        return lock_discipline(sources({"a.py": code}))

    def test_real_tree(self, repro_tree):
        assert lock_discipline(repro_tree) == []

    def test_locked_mutations_clean(self):
        assert self.check(LOCKED_CLASS) == []

    def test_unlocked_mutation_flagged(self):
        found = self.check(
            LOCKED_CLASS + "\n    def sneak(self, item):\n        self._items.append(item)\n"
        )
        assert len(found) == 1
        assert "_items" in found[0] and "sneak" in found[0]

    def test_unlocked_augassign_flagged(self):
        found = self.check(LOCKED_CLASS + "\n    def bump(self):\n        self._count += 1\n")
        assert len(found) == 1 and "_count" in found[0]

    def test_unlocked_subscript_store_flagged(self):
        found = self.check(LOCKED_CLASS + "\n    def poke(self):\n        self._items[0] = None\n")
        assert len(found) == 1

    def test_init_is_exempt(self):
        # The declarations in __init__ are themselves unlocked stores.
        assert self.check(LOCKED_CLASS) == []

    def test_holds_annotation_exempts_method(self):
        assert self.check(
            LOCKED_CLASS
            + "\n    def _add_locked(self, item):  # lint: holds(_lock) called by add()\n"
            "        self._items.append(item)\n"
        ) == []

    def test_wrong_lock_does_not_count(self):
        found = self.check(
            LOCKED_CLASS + "\n    def wrong(self, item):\n"
            "        with self._other_lock:\n"
            "            self._items.append(item)\n"
        )
        assert len(found) == 1

    def test_undeclared_attributes_unchecked(self):
        assert self.check(LOCKED_CLASS + "\n    def free(self):\n        self._scratch = 1\n") == []


# ----------------------------------------------------------------------
# single-call-site: a restricted call appears only in the files named.
# ----------------------------------------------------------------------
CALL_SITES = {
    "prepare_query": (
        ("query/spec.py", "core/windows.py"),
        "every plane prepares queries through repro.query.spec.prepare_values",
    ),
    "fan_out": (
        ("_util.py", "query/parts.py", "query/planner.py"),
        "the part loop is written once, in repro.query.parts.PartSet "
        "(the planner's batch loop fans out queries, not parts)",
    ),
}


def single_call_site(files):
    out = []
    for file in files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call) or call_name(node) not in CALL_SITES:
                continue
            allowed, reason = CALL_SITES[call_name(node)]
            if file.rel not in allowed:
                out += file.finding(
                    node.lineno, "single-call-site",
                    f"{call_name(node)}() outside {' / '.join(allowed)}: {reason}",
                )
    return out


class TestSingleCallSite:
    def check(self, files):
        return single_call_site(sources(files))

    def test_real_tree(self, repro_tree):
        assert single_call_site(repro_tree) == []

    def test_canonical_callers_allowed(self):
        assert self.check({
            "query/spec.py": "prepared = source.prepare_query(values)\n",
            "core/windows.py": "w = self.prepare_query(values)\n",
        }) == []

    def test_rogue_caller_flagged(self):
        found = self.check({"indices/isax.py": "q = source.prepare_query(values)\n"})
        assert len(found) == 1
        assert found[0].startswith("indices/isax.py:1:") and "prepare_query" in found[0]

    def test_part_loop_has_one_home(self):
        """``fan_out`` belongs to ``query/parts.py``; the planner's
        query-level batch loop may fan out too."""
        assert self.check({
            "_util.py": "r = fan_out(e, f, xs)\n",
            "query/parts.py": "a = fan_out(e, f, xs)\n",
            "query/planner.py": "b = fan_out(e, f, xs)\n",
        }) == []

    @pytest.mark.parametrize("rel", ["engine/sharding.py", "live/index.py", "engine/executor.py"])
    def test_second_part_loop_flagged(self, rel):
        found = self.check({rel: "x = 1\nout = fan_out(pool, fn, shards, part='shard')\n"})
        assert len(found) == 1
        assert found[0].startswith(f"{rel}:2:") and "PartSet" in found[0]

    def test_plane_level_map_flagged(self):
        found = self.check({"live/index.py": "r = fan_out(pool, one, segments)\n"})
        assert len(found) == 1 and "fan_out" in found[0]


# ----------------------------------------------------------------------
# cpu-count: os.cpu_count() reports the machine, not the affinity mask;
# pools size with repro._util.available_cpu_count().
# ----------------------------------------------------------------------
def cpu_count(files):
    out = []
    for file in files:
        if file.rel == "_util.py":
            continue  # available_cpu_count() itself
        for node in calls(file, "cpu_count"):
            out += file.finding(
                node.lineno, "cpu-count",
                "cpu_count() ignores the CPU affinity mask; use "
                "repro._util.available_cpu_count()",
            )
    return out


class TestCpuCount:
    def test_real_tree(self, repro_tree):
        assert cpu_count(repro_tree) == []

    def test_os_cpu_count_flagged(self):
        found = cpu_count(sources({"engine/executor.py": "import os\nn = os.cpu_count()\n"}))
        assert len(found) == 1
        assert found[0].startswith("engine/executor.py:2:") and "available_cpu_count" in found[0]

    def test_shim_module_allowed(self):
        assert cpu_count(sources({"_util.py": "import os\nn = os.cpu_count() or 1\n"})) == []


# ----------------------------------------------------------------------
# wall-clock: time.time() is not monotonic, so a duration taken from it
# can come out negative; genuine epoch stamps say so on the line.
# ----------------------------------------------------------------------
def wall_clock(files):
    out = []
    for file in files:
        bare = any(
            isinstance(node, ast.ImportFrom) and node.module == "time"
            and any(alias.name == "time" and alias.asname in (None, "time") for alias in node.names)
            for node in ast.walk(file.tree)
        )
        for node in calls(file, "time"):
            func = node.func
            if (isinstance(func, ast.Name) and bare) or (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                out += file.finding(
                    node.lineno, "wall-clock",
                    "time.time() is not monotonic; use time.perf_counter() "
                    "for durations, or mark an epoch timestamp with "
                    "`# lint: disable=wall-clock <why>`",
                )
    return out


class TestWallClock:
    def check(self, code):
        return wall_clock(sources({"a.py": code}))

    def test_real_tree(self, repro_tree):
        assert wall_clock(repro_tree) == []

    def test_time_time_flagged(self):
        found = self.check("import time\nstart = time.time()\n")
        assert len(found) == 1
        assert found[0].startswith("a.py:2:") and "perf_counter" in found[0]

    def test_bare_time_after_from_import_flagged(self):
        found = self.check("from time import time\nstart = time()\n")
        assert len(found) == 1 and found[0].startswith("a.py:2:")

    def test_perf_counter_clean(self):
        assert self.check("import time\nstart = time.perf_counter()\n") == []

    def test_epoch_timestamp_suppression(self):
        assert self.check(
            "import time\nstamp = time.time()  # lint: disable=wall-clock epoch stamp\n"
        ) == []


# ----------------------------------------------------------------------
# unread-metric: every repro_* metric registered under src/ is read by a
# file under tests/, examples/ or benchmarks/, so a metric that outlives
# the event it counts, or counts it wrongly, does not go unseen.
# ----------------------------------------------------------------------
def registered_metrics(files):
    """``(file, line, pattern)`` per ``repro_*`` metric registered in
    ``files``: the regex of a literal name, or of an f-string name with
    ``\\w+`` for each field."""
    for file in files:
        for kind in ("counter", "gauge", "histogram"):
            for node in calls(file, kind):
                name = node.args[0] if node.args else None
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    pattern = re.escape(name.value)
                elif isinstance(name, ast.JoinedStr):
                    pattern = "".join(
                        re.escape(part.value) if isinstance(part, ast.Constant) else r"\w+"
                        for part in name.values
                    )
                else:
                    continue
                if pattern.startswith("repro_"):
                    yield file, node.lineno, pattern


def unread_metrics(files, readers):
    out = []
    for file, line, pattern in registered_metrics(files):
        # A histogram is also read through its exposition series.
        regex = re.compile(rf"\b{pattern}(_bucket|_sum|_count)?\b")
        if not any(regex.search(text) for text in readers):
            out += file.finding(
                line, "unread-metric",
                f"metric {pattern} is read by no file under tests/, "
                "examples/ or benchmarks/",
            )
    return out


class TestUnreadMetric:
    def test_real_tree(self, repro_tree):
        readers = [
            path.read_text()
            for folder in ("tests", "examples", "benchmarks")
            for path in sorted((REPO / folder).rglob("*.py"))
            if path.resolve() != pathlib.Path(__file__).resolve()
        ]
        assert unread_metrics(repro_tree, readers) == []

    def test_unread_metric_flagged(self):
        code = 'seals = registry.counter("repro_seals_total", "Seals.")\n'
        found = unread_metrics(sources({"live/index.py": code}), ["other = 1\n"])
        assert len(found) == 1
        assert found[0].startswith("live/index.py:1:") and "repro_seals_total" in found[0]

    def test_read_metric_clean(self):
        code = 'seals = registry.histogram("repro_seals_seconds", "Seals.")\n'
        reader = 'assert registry.get("repro_seals_seconds") is not None\n'
        assert unread_metrics(sources({"a.py": code}), [reader]) == []

    def test_a_longer_name_does_not_read_a_shorter_one(self):
        code = 'seals = registry.counter("repro_seals", "Seals.")\n'
        reader = 'registry.get("repro_seals_total")\n'
        assert len(unread_metrics(sources({"a.py": code}), [reader])) == 1

    def test_fstring_name_read_by_any_filling(self):
        code = 'for s in ("hits",):\n    registry.gauge(f"repro_cache_{s}", "Cache.")\n'
        assert unread_metrics(sources({"a.py": code}), ['get("repro_cache_hits")']) == []
        found = unread_metrics(sources({"a.py": code}), ['get("repro_other")'])
        assert len(found) == 1 and found[0].startswith("a.py:2:")

    def test_histogram_read_through_its_exposition_series(self):
        code = 'registry.histogram("repro_seal_seconds", "Seals.")\n'
        reader = 'assert "repro_seal_seconds_bucket" in text\n'
        assert unread_metrics(sources({"a.py": code}), [reader]) == []

    def test_other_names_unchecked(self):
        code = 'registry.counter("queue_depth", "Not ours.")\nregistry.gauge(name)\n'
        assert unread_metrics(sources({"a.py": code}), []) == []


# ----------------------------------------------------------------------
# untyped-defs: the AST form of mypy's disallow_untyped_defs +
# disallow_incomplete_defs over the packages where the invariants live.
# A method's self / cls is exempt, and an __init__ with an annotated
# parameter needs no return annotation.
# ----------------------------------------------------------------------
TYPED_PACKAGES = (
    "core", "engine", "live", "query", "obs", "faults", "persistence", "indices", "data",
    "euclidean",
)


def untyped_defs(files):
    out = []
    for file in files:
        if file.rel.split("/")[0] not in TYPED_PACKAGES:
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            params = positional + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg is not None
            ]
            missing = [param.arg for param in params if param.annotation is None]
            needs_return = node.returns is None and not (
                node.name == "__init__" and len(missing) < len(params)
            )
            if missing or needs_return:
                what = [f"parameter(s) {', '.join(missing)}"] if missing else []
                out += file.finding(
                    node.lineno, "untyped-defs",
                    f"{node.name}() lacks a type annotation for "
                    f"{' and '.join(what + (['its return'] if needs_return else []))}",
                )
    return out


class TestUntypedDefs:
    def check(self, code, rel="core/a.py"):
        return untyped_defs(sources({rel: code}))

    def test_real_tree(self, repro_tree):
        assert untyped_defs(repro_tree) == []

    def test_fully_annotated_clean(self):
        assert self.check(
            "class A:\n"
            "    def f(self, x: int, *args: int, y: str = '', **kw: object) -> int:\n"
            "        return x\n"
            "    @classmethod\n"
            "    def g(cls) -> None:\n"
            "        pass\n"
        ) == []

    def test_missing_parameter_annotation_flagged(self):
        found = self.check("def f(x, y: int) -> int:\n    return y\n")
        assert len(found) == 1
        assert found[0].startswith("core/a.py:1:") and "parameter(s) x" in found[0]

    def test_missing_return_annotation_flagged(self):
        found = self.check("def f(x: int):\n    return x\n")
        assert len(found) == 1 and "its return" in found[0]

    @pytest.mark.parametrize("signature", ["*args", "**kwargs"])
    def test_unannotated_star_parameters_flagged(self, signature):
        assert len(self.check(f"def f({signature}) -> None:\n    pass\n")) == 1

    def test_nested_defs_checked(self):
        found = self.check("def f() -> None:\n    def g(x):\n        pass\n")
        assert len(found) == 1 and found[0].startswith("core/a.py:2:")

    def test_init_with_an_annotated_parameter_needs_no_return(self):
        assert self.check("class A:\n    def __init__(self, x: int):\n        pass\n") == []

    def test_bare_init_needs_a_return_annotation(self):
        found = self.check("class A:\n    def __init__(self):\n        pass\n")
        assert len(found) == 1 and "its return" in found[0]

    def test_packages_outside_the_typed_set_unchecked(self):
        assert self.check("def f(x):\n    return x\n", rel="bench/a.py") == []


# ----------------------------------------------------------------------
# public-api: every root export is documented, has exactly one home
# __all__ below the root (unless the root defines it), and is listed
# once. Checked on the imported package.
# ----------------------------------------------------------------------
def has_docstring(obj):
    """An own docstring: not inherited, not the signature @dataclass
    writes into ``__doc__`` when the class has none."""
    doc = (obj.__doc__ or "").strip()
    if dataclasses.is_dataclass(obj) and doc.startswith(f"{obj.__name__}("):
        return False
    return bool(doc)


def public_api(root, modules):
    out = [f"duplicate __all__ entry {name!r}" for name in sorted(
        {name for name in root.__all__ if root.__all__.count(name) > 1}
    )]
    for name in sorted(set(root.__all__)):
        if name.startswith("__") and name.endswith("__"):
            continue
        if not hasattr(root, name):
            out.append(f"__all__ exports {name!r} but the root never binds it")
            continue
        obj = getattr(root, name)
        if (inspect.isclass(obj) or inspect.isroutine(obj)) and not has_docstring(obj):
            out.append(f"public export {name!r} has no docstring")
        if getattr(obj, "__module__", None) == root.__name__:
            continue  # defined in the root: its home is the root
        homes = [module.__name__ for module in modules if name in getattr(module, "__all__", ())]
        if len(homes) != 1:
            out.append(
                f"exported name {name!r} is in {len(homes)} module __all__ "
                f"lists {homes}; exactly one must be its home"
            )
    return out


def repro_modules():
    """Every ``repro.*`` module, imported."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


def module(name, code=""):
    """A fixture module executing ``code`` under ``name``."""
    mod = types.ModuleType(name)
    exec(code, mod.__dict__)
    return mod


TWIN_SEARCH = (
    "def twin_search(series, query, epsilon):\n"
    '    """Find twin subsequences."""\n'
    "    return []\n"
)


class TestPublicApi:
    @staticmethod
    def api(core_code=TWIN_SEARCH + '__all__ = ["twin_search"]\n', root_all=("twin_search",)):
        core = module("pkg.core", core_code)
        root = module("pkg")
        if hasattr(core, "twin_search"):
            root.twin_search = core.twin_search
        root.__all__ = list(root_all)
        return root, core

    def test_real_tree(self):
        assert public_api(repro, repro_modules()) == []

    def test_complete_surface_clean(self):
        root, core = self.api()
        assert public_api(root, [core]) == []

    def test_missing_docstring_flagged(self):
        root, core = self.api(
            "def twin_search(series, query, epsilon):\n    return []\n"
            '__all__ = ["twin_search"]\n'
        )
        assert public_api(root, [core]) == ["public export 'twin_search' has no docstring"]

    def test_dataclass_signature_is_not_a_docstring(self):
        root, core = self.api(
            "import dataclasses\n"
            "@dataclasses.dataclass\nclass Stats:\n    hits: int = 0\n"
            '__all__ = ["Stats"]\n',
            root_all=("Stats",),
        )
        root.Stats = core.Stats
        assert public_api(root, [core]) == ["public export 'Stats' has no docstring"]

    def test_duplicate_export_flagged(self):
        root, core = self.api(root_all=("twin_search", "twin_search"))
        assert any("duplicate" in finding for finding in public_api(root, [core]))

    def test_unbound_export_flagged(self):
        root, core = self.api()
        del root.twin_search
        assert any("never binds" in finding for finding in public_api(root, [core]))

    def test_export_without_home_flagged(self):
        root, core = self.api(TWIN_SEARCH)
        assert any("0 module __all__" in finding for finding in public_api(root, [core]))

    def test_export_with_two_homes_flagged(self):
        root, core = self.api()
        indices = module("pkg.indices", '__all__ = ["twin_search"]\n')
        assert any("exactly one" in finding for finding in public_api(root, [core, indices]))

    def test_root_defined_names_need_no_home(self):
        root = module("pkg", TWIN_SEARCH + '__all__ = ["twin_search"]\n')
        assert public_api(root, []) == []


# ----------------------------------------------------------------------
# Suppressions and tool configuration
# ----------------------------------------------------------------------
INVARIANTS = {
    "failpoint-sites", "crash-safety", "lock-discipline", "single-call-site", "cpu-count",
    "wall-clock", "untyped-defs", "unread-metric",
}


class TestRealTree:
    def test_real_tree_uses_suppressions_sparingly(self, repro_tree):
        # Every suppression is a documented exception naming a live
        # invariant; the count only moves when one is added or removed
        # deliberately.
        names = [
            name
            for file in repro_tree
            for number in range(1, len(file.lines) + 1)
            for name in (file.comment(number, _DISABLE_RE) or "").split(",")
            if name
        ]
        assert set(names) <= INVARIANTS
        assert len(names) <= 12


class TestToolConfig:
    """The ruff/mypy wiring in pyproject.toml (both run in the CI lint
    job; neither tool ships in the test environment, so real
    invocations are availability-gated)."""

    @pytest.fixture(scope="class")
    def pyproject(self):
        import tomllib

        with open(REPO / "pyproject.toml", "rb") as handle:
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
        proc = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
    def test_mypy_clean(self):
        proc = subprocess.run(["mypy"], cwd=REPO, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
