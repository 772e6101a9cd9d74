"""Layering rules: single-call-site, cpu-count, bench-writes, wall-clock.

Four small checkers that pin conventions the stack's exactness and
benchmarking contracts depend on:

* ``single-call-site`` — methods that must have exactly one caller in
  the library. Today: ``source.prepare_query`` may be called only from
  ``query/spec.py`` (the pipeline's one validation + domain-mapping
  site; the conformance suites assume every plane prepares queries
  identically), and ``fan_out`` only from ``query/parts.py`` (the one
  part loop). The rule table is data — add a row to pin a new method.
* ``cpu-count`` — ``os.cpu_count()`` reports the machine, not the
  affinity mask this process may run on; every pool must size itself
  with :func:`repro._util.available_cpu_count` instead.
* ``bench-writes`` — ``BENCH_*.json`` artifacts must be written through
  :func:`repro.bench.record.write_artifact` (schema-versioned envelope,
  stable ordering); a direct ``open``/``json.dump`` against a BENCH
  path bypasses the envelope and breaks baseline comparison.
* ``wall-clock`` — ``time.time()`` is not monotonic: a clock step turns
  a duration computed from it negative (or huge). Durations and spans
  must use ``time.perf_counter()``; genuine epoch timestamps (artifact
  metadata, trace start times) carry
  ``# lint: disable=wall-clock <why>``.
"""

from __future__ import annotations

import ast
import dataclasses
import re

from .model import SourceFile, SourceTree, Violation, call_name

SINGLE_CALL_SITE = "single-call-site"
CPU_COUNT = "cpu-count"
BENCH_WRITES = "bench-writes"
WALL_CLOCK = "wall-clock"


@dataclasses.dataclass(frozen=True)
class CallSiteRule:
    """One restricted method and the files allowed to call it."""

    #: Method / function name whose calls are restricted.
    name: str
    #: Tree-relative paths (or path prefixes ending in ``/``) allowed to
    #: contain call sites — the canonical caller plus the definition.
    allowed: tuple[str, ...]
    #: Why the restriction exists (quoted in the violation message).
    reason: str


#: The single-call-site rule table.
CALL_SITE_RULES = (
    CallSiteRule(
        name="prepare_query",
        allowed=("query/spec.py", "core/windows.py"),
        reason=(
            "query preparation (validation + raw→index domain mapping) "
            "must flow through repro.query.spec.prepare_values so every "
            "plane prepares queries identically"
        ),
    ),
    CallSiteRule(
        name="fan_out",
        allowed=("_util.py", "query/parts.py"),
        reason=(
            "per-part fan-out (deadline, degraded report, span, failpoint, "
            "merge) is written once, in repro.query.parts.PartSet; a plane "
            "hands it parts instead of growing a second copy of the loop"
        ),
    ),
    CallSiteRule(
        name="map_with_executor",
        allowed=("_util.py", "query/parts.py", "query/planner.py"),
        reason=(
            "only query-level batch loops (PartSet.search_batch, the "
            "planner's synthesized batches) map over an executor; parts "
            "fan out through PartSet"
        ),
    ),
)

#: Files allowed to call ``os.cpu_count`` (the shim's own home).
CPU_COUNT_ALLOWED = ("_util.py",)

#: Files allowed to write BENCH artifacts directly (the envelope itself).
BENCH_WRITE_ALLOWED = ("bench/record.py",)

_BENCH_RE = re.compile(r"BENCH_\w+\.json\Z")

#: Callables that constitute a "write" for the bench-writes rule.
_WRITE_CALLS = frozenset({"open", "dump", "write_text", "write_bytes"})


def _allowed(file: SourceFile, allowed: tuple[str, ...]) -> bool:
    return any(
        file.rel == entry or (entry.endswith("/") and file.rel.startswith(entry))
        for entry in allowed
    )


def check_single_call_site(tree: SourceTree) -> list[Violation]:
    """Enforce the :data:`CALL_SITE_RULES` table."""
    rules = {rule.name: rule for rule in CALL_SITE_RULES}
    violations = []
    for file in tree:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            rule = rules.get(call_name(node) or "")
            if rule is None or _allowed(file, rule.allowed):
                continue
            violations.append(
                Violation(
                    SINGLE_CALL_SITE,
                    file.rel,
                    node.lineno,
                    f"call to {rule.name}() outside "
                    f"{' / '.join(rule.allowed)}: {rule.reason}",
                )
            )
    return violations


def check_cpu_count(tree: SourceTree) -> list[Violation]:
    """Ban ``os.cpu_count()`` outside the ``available_cpu_count`` shim."""
    violations = []
    for file in tree:
        if _allowed(file, CPU_COUNT_ALLOWED):
            continue
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Call) and call_name(node) == "cpu_count":
                violations.append(
                    Violation(
                        CPU_COUNT,
                        file.rel,
                        node.lineno,
                        "cpu_count() ignores the CPU affinity mask; use "
                        "repro._util.available_cpu_count() so pools size "
                        "to the CPUs this process may actually run on",
                    )
                )
    return violations


def check_bench_writes(tree: SourceTree) -> list[Violation]:
    """Ban direct writes of ``BENCH_*.json`` outside the envelope."""
    violations = []
    for file in tree:
        if _allowed(file, BENCH_WRITE_ALLOWED):
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in _WRITE_CALLS:
                continue
            # Scan the whole call — the BENCH literal may sit in an
            # argument (open("BENCH_x.json")) or in the receiver chain
            # (Path("BENCH_x.json").write_text(...)).
            literals = [
                child.value
                for child in ast.walk(node)
                if isinstance(child, ast.Constant) and isinstance(child.value, str)
            ]
            if any(_BENCH_RE.search(value) for value in literals):
                violations.append(
                    Violation(
                        BENCH_WRITES,
                        file.rel,
                        node.lineno,
                        "direct write of a BENCH_*.json artifact bypasses "
                        "the schema-versioned envelope; route it through "
                        "repro.bench.record.write_artifact",
                    )
                )
    return violations


def _imports_time_name(file: SourceFile) -> bool:
    """Whether the module does ``from time import time``."""
    for node in ast.walk(file.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time" and alias.asname in (None, "time"):
                    return True
    return False


def check_wall_clock(tree: SourceTree) -> list[Violation]:
    """Ban ``time.time()`` without an explicit wall-clock suppression."""
    violations = []
    for file in tree:
        bare_time = _imports_time_name(file)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_wall = (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (
                bare_time
                and isinstance(func, ast.Name)
                and func.id == "time"
            )
            if is_wall:
                violations.append(
                    Violation(
                        WALL_CLOCK,
                        file.rel,
                        node.lineno,
                        "time.time() is wall-clock and not monotonic; use "
                        "time.perf_counter() for durations/spans, or mark "
                        "a genuine epoch timestamp with "
                        "`# lint: disable=wall-clock <why>`",
                    )
                )
    return violations
