"""The four workloads: seeded inputs, front-door op loops, oracle checks.

Everything here calls only the program's front doors
(``repro.bulk_load(...).freeze()`` / ``FrozenTSIndex.search``,
``QueryEngine``, ``LiveTwinIndex``) from **one client thread, closed
loop**: the next operation is issued when the previous one returned.
The per-layer view of the same workloads lives in :mod:`probes`.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import sys
import traceback
from typing import Callable

import numpy as np

import repro

from . import inputs, oracle
from .measure import Outcome, SpeedLog, clock, ms, peak_rss_mib, timed, tree_bytes

LENGTH = 100

#: ε as a fraction of the median pairwise window distance. On this
#: generator 0.375 × scale is the median 10-NN non-overlapping distance
#: (filter ratio ≈ 15–18 %, hundreds of twins for heavy queries) and
#: 0.19 × scale leaves ≈ 1 twin per query at a filter ratio of ≈ 2 %.
SPARSE_FRACTION = 0.19
DENSE_FRACTION = 0.375

ENGINE_NAME = "main"
ENGINE_SHARDS = 2
ENGINE_WORKERS = 2
ENGINE_CACHE = 256
KNN_K = 10

LIVE_BATCH = 64
#: One search after every this many appended batches.
LIVE_SEARCH_EVERY = 2

WARMUP_OPS = 100
#: Operations per run whose answers are compared with the oracle.
CHECKS = 24
PAIR_SAMPLE = 20_000


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Every size the benchmark uses, in one table."""

    frozen_windows: int
    engine_windows: int
    live_initial: int
    #: live_ingest is sized by work, not by time (see README): this many
    #: readings are appended per second of ``--seconds``.
    live_readings_per_second: int
    frozen_setup_repeats: int
    live_setup_repeats: int
    recovers: int
    #: Traced-run sizes: the frozen / engine / live probe groups on a
    #: workload that is not their own run on slices this large.
    probe_frozen_windows: int
    probe_tree_windows: int
    probe_engine_windows: int
    probe_live_initial: int
    probe_live_appended: int


FULL = Sizes(
    frozen_windows=200_000,
    engine_windows=60_000,
    live_initial=20_000,
    live_readings_per_second=12_000,
    frozen_setup_repeats=7,
    live_setup_repeats=3,
    recovers=5,
    probe_frozen_windows=40_000,
    probe_tree_windows=20_000,
    probe_engine_windows=8_000,
    probe_live_initial=5_000,
    probe_live_appended=12_000,
)

SMOKE = Sizes(
    frozen_windows=6_000,
    engine_windows=3_000,
    live_initial=2_000,
    live_readings_per_second=3_000,
    frozen_setup_repeats=2,
    live_setup_repeats=2,
    recovers=2,
    probe_frozen_windows=3_000,
    probe_tree_windows=1_500,
    probe_engine_windows=2_000,
    probe_live_initial=1_500,
    probe_live_appended=3_000,
)


@dataclasses.dataclass(frozen=True)
class Config:
    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    #: Scratch directory inside the checkout, removed when the run ends.
    workdir: str


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs. ``values`` is the series in the
    index's value domain as the *oracle* computes it (z-normalized for
    the GLOBAL workloads, raw for live_ingest); queries are cut from
    it. ``extra`` holds the workload's schedule arrays."""

    series: np.ndarray
    values: np.ndarray
    epsilon: float
    digest: str
    extra: dict[str, np.ndarray]


def _epsilon(values: np.ndarray, windows: int, fraction: float, rng) -> tuple[float, np.ndarray]:
    pairs = rng.integers(0, windows, size=(2, PAIR_SAMPLE))
    scale = oracle.pair_distance_scale(values, LENGTH, pairs)
    # Rounded so ε is never bit-for-bit some window pair's distance.
    return round(fraction * scale, 6), pairs


def twin_inputs(cfg: Config, fraction: float) -> Inputs:
    rng = np.random.default_rng(cfg.seed)
    windows = cfg.sizes.frozen_windows
    series = inputs.make_series(rng, windows + LENGTH - 1, LENGTH)
    positions = rng.choice(windows, size=windows // 20, replace=False)
    values = oracle.znormalize(series)
    epsilon, pairs = _epsilon(values, windows, fraction, rng)
    return Inputs(
        series, values, epsilon,
        inputs.inputs_sha256(series, positions, pairs),
        {"positions": positions},
    )


def engine_inputs(cfg: Config) -> Inputs:
    rng = np.random.default_rng(cfg.seed)
    windows = cfg.sizes.engine_windows
    series = inputs.make_series(rng, windows + LENGTH - 1, LENGTH)
    schedule = inputs.make_engine_schedule(rng, windows, max(2_000, windows // 3))
    values = oracle.znormalize(series)
    epsilon, pairs = _epsilon(values, windows, SPARSE_FRACTION, rng)
    return Inputs(
        series, values, epsilon,
        inputs.inputs_sha256(series, pairs, *schedule.values()),
        schedule,
    )


def live_inputs(cfg: Config, initial: int, appended: int) -> Inputs:
    rng = np.random.default_rng(cfg.seed)
    appended -= appended % LIVE_BATCH
    series = inputs.make_series(rng, initial + appended, LENGTH)
    # A search's position is this draw times the window count at the
    # moment it is issued, so the schedule does not depend on timing.
    draws = rng.random(appended // LIVE_BATCH // LIVE_SEARCH_EVERY + 1)
    recover_positions = rng.integers(0, series.size - LENGTH + 1, size=cfg.sizes.recovers)
    epsilon, pairs = _epsilon(series, initial - LENGTH + 1, SPARSE_FRACTION, rng)
    return Inputs(
        series, series, epsilon,
        inputs.inputs_sha256(series, draws, recover_positions, pairs),
        {"draws": draws, "recover_positions": recover_positions},
    )


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LoopResult:
    #: Op index and latency (seconds) of every timed op, in issue
    #: order, and the reference-kernel seconds at the moment it ended.
    ops: np.ndarray
    latencies: np.ndarray
    reference: np.ndarray
    #: Results of the ops named in ``keep``, for the oracle.
    kept: dict[int, object]


def report_failure(outcome: Outcome, what: str) -> None:
    """Count one failed op; the first one's traceback goes to stderr."""
    outcome.failed += 1
    if outcome.failed == 1:
        print(f"twinbench: first failed op: {what}", file=sys.stderr)
        if sys.exc_info()[0] is not None:
            traceback.print_exc(file=sys.stderr)


def closed_loop(
    call: Callable[[int], object],
    count: int,
    seconds: float,
    outcome: Outcome,
    keep: frozenset[int],
) -> LoopResult:
    """Issue ``call(i)`` for ``i = 0, 1, …`` (cycling after ``count``),
    one at a time: :data:`WARMUP_OPS` untimed ops, then timed ops until
    ``seconds`` have passed. An op that raises counts as failed and the
    loop goes on. Between ops, every 0.2 s, the reference kernel is
    timed (outside every op's latency)."""
    kept: dict[int, object] = {}

    def attempt(issued: int) -> None:
        index = issued % count
        outcome.attempted += 1
        try:
            result = call(index)
        except Exception:  # boundary: the loop must keep running
            report_failure(outcome, f"op {index} raised")
            return
        if index in keep:
            kept.setdefault(index, result)

    for issued in range(WARMUP_OPS):
        attempt(issued)
    ops: list[int] = []
    latencies: list[float] = []
    ends: list[float] = []
    issued = WARMUP_OPS
    speed = SpeedLog()
    now = speed.sample()
    deadline = now + seconds
    while now < deadline:
        attempt(issued)
        after = clock()
        ops.append(issued % count)
        latencies.append(after - now)
        ends.append(after)
        now = speed.sample_if_due(after)
        issued += 1
    speed.sample()
    outcome.info["reference_kernel_ms"] = round(speed.median_ms(), 3)
    return LoopResult(np.asarray(ops), np.asarray(latencies), speed.at(ends), kept)


def latency_metrics(outcome: Outcome, latencies: np.ndarray, reference: np.ndarray) -> None:
    """Query latency in units of the reference kernel
    (``query_p50_ref`` / ``query_p90_ref``: each latency over the
    kernel's time at that moment) and in milliseconds
    (``query_ms_p50`` / ``_p90`` / ``_p95``, plus ``_p99`` when the
    sample has at least ten values beyond it)."""
    relative = latencies / reference
    outcome.put("query_p50_ref", float(np.percentile(relative, 50)), "ref")
    outcome.put("query_p90_ref", float(np.percentile(relative, 90)), "ref")
    outcome.put("query_ms_p50", ms(latencies), "ms")
    outcome.put("query_ms_p90", ms(latencies, 90), "ms")
    outcome.put("query_ms_p95", ms(latencies, 95), "ms")
    outcome.info["query_samples"] = int(latencies.size)
    if latencies.size >= 1_000:
        outcome.put("query_ms_p99", ms(latencies, 99), "ms")


def throughput_metrics(outcome: Outcome, latencies: np.ndarray, reference: np.ndarray) -> None:
    """Completed ops per reference-kernel time and per second, over
    the time spent in the ops."""
    outcome.put("ops_per_ref", latencies.size / float((latencies / reference).sum()), "1/ref")
    outcome.put("ops_per_s", latencies.size / float(latencies.sum()), "1/s")


def check_twins(outcome: Outcome, values, query, epsilon, result, what: str) -> None:
    positions, distances = oracle.twins(values, query, epsilon)
    if not oracle.same_result(result.positions, result.distances, positions, distances):
        report_failure(outcome, f"{what}: twins differ from the oracle")


def frozen_array_bytes(index) -> int:
    """Σ ``nbytes`` of a frozen index's resident arrays."""
    return sum(int(array.nbytes) for array in index.raw_arrays().values())


# ----------------------------------------------------------------------
# twin_sparse / twin_dense
# ----------------------------------------------------------------------
def build_frozen(series: np.ndarray):
    """The twin workloads' set-up: series → answerable frozen index."""
    return repro.bulk_load(series, LENGTH).freeze()


def run_twin(cfg: Config, fraction: float) -> Outcome:
    outcome = Outcome()
    data = twin_inputs(cfg, fraction)
    positions = data.extra["positions"]
    outcome.info.update(inputs_sha256=data.digest, epsilon=data.epsilon)

    # A single bulk-load + freeze is too short to repeat within ±25 %,
    # so set-up runs several times and reports the median.
    setups = []
    index = None
    for _ in range(cfg.sizes.frozen_setup_repeats):
        del index  # one index resident at a time, as a user would have
        seconds, index = timed(lambda: build_frozen(data.series))
        setups.append(seconds)
    outcome.put("setup_s", statistics.median(setups), "s")

    def search(i: int):
        start = int(positions[i])
        return index.search(data.values[start:start + LENGTH], data.epsilon)

    keep = frozenset(range(WARMUP_OPS, WARMUP_OPS + CHECKS))
    loop = closed_loop(search, positions.size, cfg.seconds, outcome, keep)
    latency_metrics(outcome, loop.latencies, loop.reference)
    throughput_metrics(outcome, loop.latencies, loop.reference)
    outcome.put("footprint_bytes_per_window", frozen_array_bytes(index) / index.size, "B")
    outcome.put("peak_rss_mib", peak_rss_mib(), "MiB")

    for i, result in loop.kept.items():
        start = int(positions[i])
        check_twins(outcome, data.values, data.values[start:start + LENGTH],
                    data.epsilon, result, f"search at {start}")
    outcome.info["oracle_checks"] = len(loop.kept)
    return outcome


# ----------------------------------------------------------------------
# engine_mix
# ----------------------------------------------------------------------
def engine_op(engine, data: Inputs, i: int):
    """Issue op ``i`` of the engine_mix schedule through the engine's
    front door."""
    kind = int(data.extra["kinds"][i])
    starts = data.extra["positions"][i]
    query = data.values[int(starts[0]):int(starts[0]) + LENGTH]
    if kind == inputs.OP_QUERY:
        return engine.query(ENGINE_NAME, query, data.epsilon)
    if kind == inputs.OP_PREFIX:
        return engine.query(ENGINE_NAME, query[:int(data.extra["prefix"][i])], data.epsilon)
    if kind == inputs.OP_COUNT:
        return engine.count(ENGINE_NAME, query, data.epsilon)
    if kind == inputs.OP_EXISTS:
        return engine.exists(ENGINE_NAME, query, data.epsilon)
    if kind == inputs.OP_BATCH:
        queries = [data.values[int(s):int(s) + LENGTH] for s in starts]
        return engine.batch(ENGINE_NAME, queries, data.epsilon)
    return engine.knn(ENGINE_NAME, query, KNN_K)


def check_engine_op(outcome: Outcome, data: Inputs, i: int, result) -> None:
    kind = int(data.extra["kinds"][i])
    starts = data.extra["positions"][i]
    what = f"{inputs.OP_NAMES[kind]} op {i}"
    query = data.values[int(starts[0]):int(starts[0]) + LENGTH]
    if kind == inputs.OP_PREFIX:
        query = query[:int(data.extra["prefix"][i])]
    if kind in (inputs.OP_QUERY, inputs.OP_PREFIX):
        check_twins(outcome, data.values, query, data.epsilon, result, what)
    elif kind == inputs.OP_COUNT:
        if int(result) != oracle.twins(data.values, query, data.epsilon)[0].size:
            report_failure(outcome, f"{what}: count differs from the oracle")
    elif kind == inputs.OP_EXISTS:
        if bool(result) != bool(oracle.twins(data.values, query, data.epsilon)[0].size):
            report_failure(outcome, f"{what}: exists differs from the oracle")
    elif kind == inputs.OP_BATCH:
        for s, member in zip(starts, result.results):
            check_twins(outcome, data.values, data.values[int(s):int(s) + LENGTH],
                        data.epsilon, member, what)
    else:
        positions, distances = oracle.knn(data.values, query, KNN_K)
        if not oracle.same_result(result.positions, result.distances, positions, distances):
            report_failure(outcome, f"{what}: knn differs from the oracle")


def engine_check_ops(data: Inputs, first: int, per_kind: int) -> frozenset[int]:
    """The first ``per_kind`` ops of every kind at or after op ``first``."""
    kinds = data.extra["kinds"]
    chosen: list[int] = []
    for kind in range(len(inputs.OP_NAMES)):
        matching = np.flatnonzero(kinds[first:] == kind)[:per_kind] + first
        chosen.extend(int(i) for i in matching)
    return frozenset(chosen)


def sharded_array_bytes(index) -> int:
    return sum(frozen_array_bytes(shard) for shard in index.shards)


def run_engine_mix(cfg: Config) -> Outcome:
    outcome = Outcome()
    data = engine_inputs(cfg)
    kinds = data.extra["kinds"]
    outcome.info.update(inputs_sha256=data.digest, epsilon=data.epsilon)

    with repro.QueryEngine(cache_capacity=ENGINE_CACHE, max_workers=ENGINE_WORKERS) as engine:
        seconds, index = timed(
            lambda: engine.build(ENGINE_NAME, data.series, LENGTH, shards=ENGINE_SHARDS)
        )
        outcome.put("setup_s", seconds, "s")

        keep = engine_check_ops(data, WARMUP_OPS, CHECKS // len(inputs.OP_NAMES))
        loop = closed_loop(
            lambda i: engine_op(engine, data, i), kinds.size, cfg.seconds, outcome, keep
        )
        cache = engine.cache.stats()

    by_kind = kinds[loop.ops]
    queries = by_kind == inputs.OP_QUERY
    latency_metrics(outcome, loop.latencies[queries], loop.reference[queries])
    throughput_metrics(outcome, loop.latencies, loop.reference)
    knn = loop.latencies[by_kind == inputs.OP_KNN]
    if knn.size:
        outcome.put("knn_ms_p50", ms(knn), "ms")
    outcome.info.update(ops=int(loop.ops.size), knn_samples=int(knn.size),
                        cache_hit_rate=round(cache.hit_rate, 4))
    outcome.put("footprint_bytes_per_window", sharded_array_bytes(index) / index.size, "B")
    outcome.put("peak_rss_mib", peak_rss_mib(), "MiB")

    for i, result in loop.kept.items():
        check_engine_op(outcome, data, i, result)
    outcome.info["oracle_checks"] = len(loop.kept)
    return outcome


# ----------------------------------------------------------------------
# live_ingest
# ----------------------------------------------------------------------
def create_live(directory: str, initial: np.ndarray):
    """The live workload's set-up: a durable plane over the first
    readings. ``fsync=False``: the sandbox's flushes say nothing about
    a device, so the flush policy is fixed to the cheap one."""
    return repro.LiveTwinIndex.create(
        directory, initial, length=LENGTH, normalization="none",
        archive_format="raw", fsync=False,
    )


@dataclasses.dataclass
class Timings:
    """Seconds of every call of one kind, in issue order, and the
    reference-kernel seconds at the moment each ended."""

    seconds: np.ndarray
    reference: np.ndarray


@dataclasses.dataclass
class IngestResult:
    appends: Timings
    searches: Timings
    #: ``(series size at the time, query start, result)`` of the
    #: searches kept for the oracle.
    kept: list[tuple[int, int, object]]

    def both(self) -> Timings:
        return Timings(
            np.concatenate((self.appends.seconds, self.searches.seconds)),
            np.concatenate((self.appends.reference, self.searches.reference)),
        )

    @property
    def wall(self) -> float:
        """Seconds spent in ``append`` and ``search`` calls."""
        return float(self.appends.seconds.sum() + self.searches.seconds.sum())


def _direct(call):
    return call()


def ingest(
    live, data: Inputs, initial: int, outcome: Outcome,
    wrap_append=_direct, wrap_search=_direct,
) -> IngestResult:
    """Append everything past ``initial`` in batches of
    :data:`LIVE_BATCH`, one search after every
    :data:`LIVE_SEARCH_EVERY` batches. ``wrap_*`` let the traced run
    put a span around each call."""
    series = data.series
    draws = data.extra["draws"]
    check_every = max(1, (draws.size - 1) // CHECKS)
    kept: list[tuple[int, int, object]] = []
    #: seconds and end times per kind of call
    logs: dict[str, tuple[list[float], list[float]]] = {"append": ([], []), "search": ([], [])}
    speed = SpeedLog()
    speed.sample()

    def issue(kind: str, number: int, wrap, call):
        outcome.attempted += 1
        before = clock()
        try:
            answer = wrap(call)
        except Exception:  # boundary: the loop must keep running
            report_failure(outcome, f"{kind} {number} raised")
            answer = None
        after = clock()
        logs[kind][0].append(after - before)
        logs[kind][1].append(after)
        return answer

    for batch, start in enumerate(range(initial, series.size, LIVE_BATCH)):
        readings = series[start:start + LIVE_BATCH]
        issue("append", batch, wrap_append, lambda: live.append(readings))
        if batch % LIVE_SEARCH_EVERY == LIVE_SEARCH_EVERY - 1:
            number = batch // LIVE_SEARCH_EVERY
            size = start + LIVE_BATCH
            position = int(draws[number] * (size - LENGTH + 1))
            query = series[position:position + LENGTH]
            found = issue("search", number, wrap_search,
                          lambda: live.search(query, data.epsilon))
            if found is not None and number % check_every == 0:
                kept.append((size, position, found))
        speed.sample_if_due(clock())
    speed.sample()
    outcome.info["reference_kernel_ms"] = round(speed.median_ms(), 3)
    appends, searches = (
        Timings(np.asarray(seconds), speed.at(ends)) for seconds, ends in logs.values()
    )
    return IngestResult(appends, searches, kept)


def check_ingest(outcome: Outcome, data: Inputs, result: IngestResult) -> None:
    for size, position, found in result.kept:
        check_twins(outcome, data.series[:size], data.series[position:position + LENGTH],
                    data.epsilon, found, f"live search at {position} of {size}")


def recover_and_check(directory: str, data: Inputs, position: int, outcome: Outcome) -> float:
    """One ``recover`` → oracle check → ``close``; returns the seconds
    ``recover`` took."""
    outcome.attempted += 1
    seconds, live = timed(lambda: repro.LiveTwinIndex.recover(directory))
    try:
        query = data.series[position:position + LENGTH]
        check_twins(outcome, data.series, query, data.epsilon,
                    live.search(query, data.epsilon), f"search at {position} after recover")
    finally:
        live.close()
    return seconds


def run_live_ingest(cfg: Config) -> Outcome:
    outcome = Outcome()
    initial = cfg.sizes.live_initial
    appended = int(cfg.sizes.live_readings_per_second * cfg.seconds)
    data = live_inputs(cfg, initial, appended)
    outcome.info.update(inputs_sha256=data.digest, epsilon=data.epsilon)

    setups = []
    for repeat in range(cfg.sizes.live_setup_repeats):
        directory = os.path.join(cfg.workdir, f"live-{repeat}")
        seconds, live = timed(lambda: create_live(directory, data.series[:initial]))
        setups.append(seconds)
        if repeat + 1 < cfg.sizes.live_setup_repeats:
            live.close()
            shutil.rmtree(directory)
    outcome.put("setup_s", statistics.median(setups), "s")

    try:
        result = ingest(live, data, initial, outcome)
    finally:
        live.close()
    readings = data.series.size - initial
    latency_metrics(outcome, result.searches.seconds, result.searches.reference)
    throughput_metrics(outcome, result.both().seconds, result.both().reference)
    outcome.put("ingest_readings_per_s", readings / float(result.appends.seconds.sum()), "1/s")
    outcome.put("footprint_bytes_per_window", tree_bytes(directory) / data.series.size, "B")
    outcome.info["appended_readings"] = readings

    check_ingest(outcome, data, result)
    recovers = [
        recover_and_check(directory, data, int(p), outcome)
        for p in data.extra["recover_positions"]
    ]
    outcome.put("recover_s", statistics.median(recovers), "s")
    outcome.put("peak_rss_mib", peak_rss_mib(), "MiB")
    outcome.info["oracle_checks"] = len(result.kept) + len(recovers)
    return outcome


def run(cfg: Config) -> Outcome:
    """The end-to-end (untraced) run of ``cfg.workload``."""
    if cfg.workload == "twin_sparse":
        return run_twin(cfg, SPARSE_FRACTION)
    if cfg.workload == "twin_dense":
        return run_twin(cfg, DENSE_FRACTION)
    if cfg.workload == "engine_mix":
        return run_engine_mix(cfg)
    return run_live_ingest(cfg)
