"""The traced run: per-layer metrics from the benchmark's own spans.

A traced run of any workload measures **every** layer, in three probe
groups — frozen (``core.*``, ``indices.sweepline``,
``persistence.serializer``), engine (``query.*``, ``engine.*``,
``obs``) and live (``live.*``). The group the workload belongs to runs
on the workload's own inputs at full size; the other two run on the
same seed's inputs at the small probe sizes of
:class:`workloads.Sizes`, so every per-layer metric has a value on
every workload and the ones that matter for it are measured where it
runs.

Spans wrap calls into each layer's public functions; nothing under
``src/`` is edited or patched. Where a probed entry point is one of
ROADMAP's deletion candidates and is absent, the probe measures the
path that replaces it and says so in the metric's note, so a deletion
PR does not have to edit the benchmark.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import os
import statistics

import numpy as np

import repro
from repro.core.verification import verify
from repro.exceptions import InvalidParameterError
from repro.persistence import load_index, save_index
from repro.query.merge import merge_offset_search
from repro.query.planner import plan

from . import inputs, workloads
from .measure import Outcome, clock, ms, timed, tree_bytes, us
from .spans import SpanRecorder
from .workloads import ENGINE_NAME, KNN_K, LENGTH, Config, Inputs, report_failure

#: Share of ``--seconds`` the frozen group's op loop (three passes per
#: query) may take on the twin workloads / on the others.
HOME_BUDGET = 0.75
AWAY_BUDGET = 0.15
PREFIX = 50
BATCH_QUERIES = 64
COLD_STARTS = 11


def _same(a, b) -> bool:
    return np.array_equal(a.positions, b.positions) and np.array_equal(a.distances, b.distances)


@dataclasses.dataclass
class Probe:
    """What every probe group needs."""

    out: Outcome
    rec: SpanRecorder
    cfg: Config
    #: Whether this group is the one the workload belongs to.
    home: bool

    @property
    def budget(self) -> float:
        return self.cfg.seconds * (HOME_BUDGET if self.home else AWAY_BUDGET)

    @property
    def sample(self) -> int:
        """Queries per side kernel probed outside the op loop."""
        return 40 if self.home else 12

    def spanned(self, name: str, count: int, call) -> np.ndarray:
        """Run ``call(i)`` for ``i < count`` under ``name`` spans;
        returns the durations."""
        for i in range(count):
            with self.rec.span(name, i):
                call(i)
        return self.rec.durations(name)[-count:]

    def overhead(self, traced_wall: float, *untraced_walls: float) -> None:
        """``trace.overhead_pct``: the traced wall of the workload's own
        op loop over the mean wall of its untraced passes (run before
        and after the traced one, or interleaved with it, so warm-up
        and drift hit both sides)."""
        if self.home:
            base = sum(untraced_walls) / len(untraced_walls)
            self.out.put("trace.overhead_pct", 100.0 * (traced_wall - base) / base, "%")
            self.out.info["trace_overhead_base_s"] = round(base, 4)


# ----------------------------------------------------------------------
# frozen group
# ----------------------------------------------------------------------
def frozen_group(probe: Probe, data: Inputs) -> None:
    out, rec = probe.out, probe.rec
    positions = data.extra["positions"]
    epsilon = data.epsilon

    def query(i: int) -> np.ndarray:
        start = int(positions[i % positions.size])
        return data.values[start:start + LENGTH]

    with rec.span("core.windows.source_build"):
        source = repro.WindowSource(data.series, LENGTH, "global")
    with rec.span("core.bulkload.build"):
        tree = repro.bulk_load_source(source)
    with rec.span("core.frozen.freeze"):
        index = tree.freeze()
    del tree
    out.put("core.windows.source_build_ms", ms(rec.durations("core.windows.source_build")), "ms")
    build = float(rec.durations("core.bulkload.build")[0])
    out.put("core.bulkload.build_s", build, "s")
    out.put("core.bulkload.windows_per_s", source.count / build, "1/s")
    out.put("core.frozen.freeze_ms", ms(rec.durations("core.frozen.freeze")), "ms")

    # The op loop. Each query runs three ways — taken apart into its
    # layers, through the front door under a span, and through the
    # front door bare — in an order that rotates from op to op, so all
    # three see the same mix of warm and cold caches.
    totals = repro.QueryStats()

    def apart(i: int):
        stats = repro.QueryStats()
        with rec.span("op", i):
            with rec.span("core.windows.prepare_query"):
                prepared = source.prepare_query(query(i))
            with rec.span("core.frozen.filter"):
                candidates = index.collect_varlength_candidates(prepared, epsilon, stats)
            with rec.span("core.verification.verify"):
                return verify(source, prepared, candidates, epsilon, stats=stats)

    def spanned(i: int):
        with rec.span("core.frozen.search", i):
            return index.search(query(i), epsilon)

    def bare(i: int):
        return index.search(query(i), epsilon)

    ways = (apart, spanned, bare)
    walls = [0.0, 0.0, 0.0]
    for i in range(20):
        bare(i)
    ops = 0
    deadline = clock() + probe.budget
    while ops < 20 or (clock() < deadline and ops < positions.size):
        results = [None, None, None]
        for turn in range(3):
            way = (ops + turn) % 3
            seconds, results[way] = timed(lambda: ways[way](ops))
            walls[way] += seconds
        out.attempted += 1
        pieces, whole, _ = results
        if not _same(pieces, whole) or pieces.stats != whole.stats:
            report_failure(out, f"prepare→filter→verify differs from search on op {ops}")
        elif ops < 4:
            workloads.check_twins(
                out, data.values, query(ops), epsilon, whole, f"traced search {ops}"
            )
        totals = totals.merge(whole.stats)
        ops += 1
    probe.overhead(walls[1], walls[2])
    out.info["frozen_traced_ops"] = ops

    prepare = rec.durations("core.windows.prepare_query")
    filtered = rec.durations("core.frozen.filter")
    verified = rec.durations("core.verification.verify")
    searched = rec.durations("core.frozen.search")
    out.put("core.windows.prepare_query_us", us(prepare), "us")
    out.put("core.frozen.search_ms_p50", ms(searched), "ms")
    out.put("core.frozen.filter_ms_p50", ms(filtered), "ms")
    out.put("core.frozen.filter_share", rec.share("core.frozen.filter", "op"), "ratio")
    out.put("core.frozen.search_self_ms_p50", ms(searched - prepare - filtered - verified), "ms")
    out.put("core.frozen.nodes_visited_per_query", totals.nodes_visited / ops, "count")
    out.put("core.frozen.nodes_pruned_share", totals.nodes_pruned / totals.nodes_visited, "ratio")
    out.put("core.frozen.leaves_accessed_per_query", totals.leaves_accessed / ops, "count")
    out.put("core.frozen.candidates_per_query", totals.candidates / ops, "count")
    out.put("core.frozen.filter_ratio", totals.candidates / (ops * index.size), "ratio")
    out.put("core.verification.verify_ms_p50", ms(verified), "ms")
    out.put("core.verification.verify_share", rec.share("core.verification.verify", "op"), "ratio")
    out.put("core.verification.ns_per_candidate",
            1e9 * float(verified.sum()) / max(1, totals.candidates), "ns")
    out.put("core.verification.match_share", totals.matches / max(1, totals.verified), "ratio")
    out.put("core.verification.matches_per_query", totals.matches / ops, "count")

    # The other read kernels, on a smaller sample.
    sample = probe.sample
    batch = [query(i) for i in range(BATCH_QUERIES if probe.home else 16)]
    note = ""
    if callable(getattr(index, "search_batch", None)):
        with rec.span("core.frozen.search_batch"):
            index.search_batch(batch, epsilon)
    else:
        note = "FrozenTSIndex.search_batch absent: measured a loop over search"
        with rec.span("core.frozen.search_batch"):
            for raw in batch:
                index.search(raw, epsilon)
    out.put("core.frozen.batch_ms_per_query",
            ms(rec.durations("core.frozen.search_batch")) / len(batch), "ms", note)
    for name, call in (
        ("knn", lambda i: index.knn(query(i), KNN_K)),
        ("exists", lambda i: index.exists(query(i), epsilon)),
        ("varlength", lambda i: index.search(query(i)[:PREFIX], epsilon)),
    ):
        out.put(f"core.frozen.{name}_ms_p50",
                ms(probe.spanned(f"core.frozen.{name}", sample, call)), "ms")

    # The paper's baseline on the same queries, both bases printed.
    sweepline = repro.SweeplineSearch.from_source(source)
    swept = probe.spanned("indices.sweepline.search", sample,
                          lambda i: sweepline.search(query(i), epsilon))
    base = probe.spanned("indices.sweepline.frozen_base", sample,
                         lambda i: index.search(query(i), epsilon))
    out.put("indices.sweepline.search_ms_p50", ms(swept), "ms")
    out.put("indices.sweepline.speedup", ms(swept) / ms(base), "ratio")
    out.info["sweepline_speedup_bases_ms"] = f"sweepline {ms(swept):.4g} / frozen {ms(base):.4g}"

    pointer_tree(probe, data, source)
    serializer(probe, index, query, epsilon)


def pointer_tree(probe: Probe, data: Inputs, source) -> None:
    """``core.tsindex``: the insertion build and the pointer-tree search."""
    out, rec = probe.out, probe.rec
    windows = min(probe.cfg.sizes.probe_tree_windows, source.count)
    positions = data.extra["positions"]
    positions = positions[positions < windows]
    with rec.span("core.tsindex.from_source"):
        tree = repro.TSIndex.from_source(source.shard(0, windows))
    out.put("core.tsindex.insert_us_per_window",
            1e6 * float(rec.durations("core.tsindex.from_source")[0]) / windows, "us")
    out.put("core.tsindex.nodes", tree.node_count, "count")
    out.put("core.tsindex.height", tree.height, "count")
    note = ""
    target = tree
    if not callable(getattr(tree, "search", None)):
        note = "TSIndex.search absent: measured TSIndex.freeze().search"
        target = tree.freeze()

    def search(i: int) -> None:
        start = int(positions[i % positions.size])
        target.search(data.values[start:start + LENGTH], data.epsilon)

    searches = probe.spanned("core.tsindex.search", 100 if probe.home else 30, search)
    out.put("core.tsindex.search_ms_p50", ms(searches), "ms", note)


def serializer(probe: Probe, index, query, epsilon: float) -> None:
    """``persistence.serializer``: both archive formats, and the cold
    start (load + first query) recovery pays per segment."""
    out, rec = probe.out, probe.rec
    raw_path = os.path.join(probe.cfg.workdir, "frozen.rts")
    npz_path = os.path.join(probe.cfg.workdir, "frozen.npz")
    with rec.span("persistence.serializer.save_raw"):
        save_index(index, raw_path, format="raw", fsync=False)
    with rec.span("persistence.serializer.load_raw"):
        load_index(raw_path)
    note = ""
    try:
        with rec.span("persistence.serializer.save_npz"):
            save_index(index, npz_path, format="npz")
    except InvalidParameterError:
        note = "npz archives absent: measured the raw format again"
        npz_path = raw_path + "2"
        with rec.span("persistence.serializer.save_npz"):
            save_index(index, npz_path, format="raw", fsync=False)
    with rec.span("persistence.serializer.load_npz"):
        load_index(npz_path)
    for name in ("save_raw", "load_raw", "save_npz", "load_npz"):
        out.put(f"persistence.serializer.{name}_ms",
                ms(rec.durations(f"persistence.serializer.{name}")[-1:]), "ms",
                note if "npz" in name else "")
    out.put("persistence.serializer.raw_bytes_per_window", tree_bytes(raw_path) / index.size, "B")
    out.put("persistence.serializer.npz_bytes_per_window",
            tree_bytes(npz_path) / index.size, "B", note)
    cold = probe.spanned("persistence.serializer.cold_first_query", COLD_STARTS,
                         lambda i: load_index(raw_path).search(query(i), epsilon))
    out.put("persistence.serializer.cold_first_query_ms", ms(cold), "ms")


# ----------------------------------------------------------------------
# engine group
# ----------------------------------------------------------------------
def _mix_pass(engine, data: Inputs, first: int, count: int, op=workloads.engine_op):
    """Ops ``first … first+count`` of the schedule on a cleared cache,
    after replaying the ``first`` ops before them; ``op`` issues one
    op. Returns the wall of the pass and the cache counters it moved."""
    engine.cache.clear()
    for i in range(first):
        workloads.engine_op(engine, data, i)
    before = engine.cache.stats()
    started = clock()
    for i in range(first, first + count):
        op(engine, data, i)
    return clock() - started, before, engine.cache.stats()


def engine_group(probe: Probe, data: Inputs) -> None:
    out, rec = probe.out, probe.rec
    kinds = data.extra["kinds"]
    epsilon = data.epsilon
    warmup = 50

    def fresh_query(i: int) -> np.ndarray:
        # Column 1 of the schedule's positions: fresh, never a hot query.
        start = int(data.extra["positions"][i, 1])
        return data.values[start:start + LENGTH]

    engine = repro.QueryEngine(
        cache_capacity=workloads.ENGINE_CACHE, max_workers=workloads.ENGINE_WORKERS
    )
    with engine, concurrent.futures.ThreadPoolExecutor(workloads.ENGINE_WORKERS) as pool:
        with rec.span("engine.executor.build"):
            index = engine.build(ENGINE_NAME, data.series, LENGTH, shards=workloads.ENGINE_SHARDS)

        # The op mix through the front door, one span per op; on the
        # engine's own workload, with an untraced pass over the same
        # ops before and after.
        ops = min(int(25 * probe.cfg.seconds) if probe.home else 40, kinds.size - warmup)
        checks = workloads.engine_check_ops(data, warmup, 1)
        kept = {}

        def traced_op(engine, data, i: int) -> None:
            with rec.span("engine.executor." + inputs.OP_NAMES[int(kinds[i])], i):
                result = workloads.engine_op(engine, data, i)
            if i in checks:
                kept[i] = result

        untraced = [_mix_pass(engine, data, warmup, ops)[0]] if probe.home else []
        traced_wall, before, after = _mix_pass(engine, data, warmup, ops, traced_op)
        if probe.home:
            probe.overhead(traced_wall, *untraced, _mix_pass(engine, data, warmup, ops)[0])
        out.attempted += ops
        for i, result in kept.items():
            workloads.check_engine_op(out, data, i, result)
        out.info["engine_traced_ops"] = ops
        lookups = after.lookups - before.lookups
        out.put("engine.cache.hit_rate", (after.hits - before.hits) / max(1, lookups), "ratio")
        out.put("engine.cache.evictions", after.evictions - before.evictions, "count")
        hot = [data.values[int(s):int(s) + LENGTH] for s in data.extra["hot_set"]]
        for q in hot:
            engine.query(ENGINE_NAME, q, epsilon)
        hits = probe.spanned("engine.cache.hit", len(hot),
                             lambda i: engine.query(ENGINE_NAME, hot[i], epsilon))
        out.put("engine.cache.hit_ms_p50", ms(hits), "ms")

        # One query taken apart: spec → plan → each shard → merge, then
        # the same query through the sharded plane and the engine.
        sample = 100 if probe.home else 30
        starts = [start for start, _ in index.spans]
        for i in range(sample):
            raw = fresh_query(i)
            with rec.span("engine.pipeline", i):
                with rec.span("query.spec.prepare"):
                    spec = repro.QuerySpec(query=raw, mode="search", epsilon=epsilon)
                    prepared = spec.prepare(index.source)
                with rec.span("query.planner.plan"):
                    plan(index, spec)
                parts = []
                for shard in index.shards:
                    with rec.span("engine.sharding.shard"):
                        parts.append(shard.search(prepared.query, epsilon))
                with rec.span("query.merge.merge"):
                    merged = merge_offset_search(zip(starts, parts))
            with rec.span("engine.sharding.search", i):
                direct = index.search(raw, epsilon, executor=pool)
            with rec.span("engine.executor.query_uncached", i):
                served = engine.query(ENGINE_NAME, raw, epsilon, use_cache=False)
            out.attempted += 1
            if not (_same(merged, direct) and _same(direct, served)):
                report_failure(out, f"spec→plan→shards→merge differs from search, query {i}")
        shard = rec.durations("engine.sharding.shard").reshape(sample, len(starts))
        wall = rec.durations("engine.sharding.search")
        out.put("query.spec.prepare_us_p50", us(rec.durations("query.spec.prepare")), "us")
        out.put("query.planner.plan_us_p50", us(rec.durations("query.planner.plan")), "us")
        out.put("query.merge.merge_us_p50", us(rec.durations("query.merge.merge")), "us")
        out.put("engine.sharding.search_ms_p50", ms(wall), "ms")
        out.put("engine.sharding.shard_ms_sum_p50", ms(shard.sum(axis=1)), "ms")
        out.put("engine.sharding.slowest_shard_ms_p50", ms(shard.max(axis=1)), "ms")
        out.put("engine.sharding.fanout_speedup",
                float(np.median(shard.sum(axis=1) / wall)), "ratio")
        out.put("engine.sharding.self_ms_p50", ms(wall - shard.max(axis=1)), "ms")
        out.put("engine.executor.overhead_ms_p50",
                ms(rec.durations("engine.executor.query_uncached") - wall), "ms")
        out.put("engine.executor.knn_ms_p50",
                ms(probe.spanned("engine.executor.knn_probe", 10 if probe.home else 3,
                                  lambda i: engine.knn(ENGINE_NAME, fresh_query(i), KNN_K))), "ms")

        obs_overhead(probe, engine, index, data, warmup)
        process_executor(probe, index, fresh_query, epsilon, sample)


def obs_overhead(probe: Probe, engine, index, data: Inputs, first: int) -> None:
    """``obs.overhead_pct``: the same ops on the default engine and on
    one with metrics and tracing off, in alternating blocks so drift
    hits both sides."""
    block = 40 if probe.home else 15
    with repro.QueryEngine(
        cache_capacity=workloads.ENGINE_CACHE, max_workers=workloads.ENGINE_WORKERS,
        metrics=False, trace_sample=0.0,
    ) as bare:
        bare.add(ENGINE_NAME, index)
        walls = {id(engine): 0.0, id(bare): 0.0}
        orders = ((engine, bare), (bare, engine), (bare, engine), (engine, bare))
        for round_, order in enumerate(orders):
            for side in order:
                walls[id(side)] += _mix_pass(side, data, first + round_ * block, block)[0]
    base = walls[id(bare)]
    probe.out.put("obs.overhead_pct", 100.0 * (walls[id(engine)] - base) / base, "%")
    probe.out.info["obs_overhead_base_s"] = round(base, 4)


def process_executor(probe: Probe, index, fresh_query, epsilon: float, sample: int) -> None:
    """``engine.procpool``: start-up (pool + spooled archive + first
    answer) and steady search on the process executor."""
    out, rec = probe.out, probe.rec
    options = dict(cache_capacity=workloads.ENGINE_CACHE, max_workers=workloads.ENGINE_WORKERS)
    note = ""
    with rec.span("engine.procpool.startup"):
        try:
            served = repro.QueryEngine(executor="process", **options)
        except (InvalidParameterError, TypeError):
            note = "executor='process' absent: measured the thread executor"
            served = repro.QueryEngine(**options)
        served.add(ENGINE_NAME, index)
        served.query(ENGINE_NAME, fresh_query(0), epsilon, use_cache=False)
    with served:
        searches = probe.spanned(
            "engine.procpool.search", sample,
            lambda i: served.query(ENGINE_NAME, fresh_query(i), epsilon, use_cache=False),
        )
    out.put("engine.procpool.startup_s",
            float(rec.durations("engine.procpool.startup")[0]), "s", note)
    out.put("engine.procpool.search_ms_p50", ms(searches), "ms", note)


# ----------------------------------------------------------------------
# live group
# ----------------------------------------------------------------------
def live_group(probe: Probe, data: Inputs, initial: int) -> None:
    out, rec, workdir = probe.out, probe.rec, probe.cfg.workdir
    series = data.series
    readings = series.size - initial
    directory = os.path.join(workdir, "live-traced")

    def under(name: str):
        numbers = itertools.count()

        def wrap(call):
            with rec.span(name, next(numbers)):
                return call()

        return wrap

    def untraced_wall(name: str) -> float:
        """The same ops with no spans, on a plane of their own."""
        plane = workloads.create_live(os.path.join(workdir, name), series[:initial])
        try:
            return workloads.ingest(plane, data, initial, Outcome()).wall
        finally:
            plane.close()

    untraced = [untraced_wall("live-before")] if probe.home else []
    with rec.span("live.index.create"):
        live = workloads.create_live(directory, series[:initial])
    try:
        result = workloads.ingest(live, data, initial, out,
                                  under("live.index.append"), under("live.index.search"))
        with rec.span("live.compaction.wait"):
            live.wait_for_compaction()
        rng = np.random.default_rng([probe.cfg.seed, 7])
        starts = rng.integers(0, series.size - LENGTH + 1, size=probe.sample)
        quiescent = probe.spanned(
            "live.index.search_quiescent", probe.sample,
            lambda i: live.search(series[int(starts[i]):int(starts[i]) + LENGTH], data.epsilon),
        )
        stats = live.stats()
    finally:
        live.close()
    if probe.home:
        probe.overhead(result.wall, *untraced, untraced_wall("live-after"))
    workloads.check_ingest(out, data, result)

    appends = rec.durations("live.index.append")
    out.put("live.index.append_us_per_reading", 1e6 * float(appends.sum()) / readings, "us")
    out.put("live.index.ingest_readings_per_s", readings / float(appends.sum()), "1/s")
    out.put("live.index.append_ms_p50", ms(appends), "ms")
    out.put("live.index.append_ms_p99", ms(appends, 99), "ms")
    out.put("live.index.append_ms_max", ms(appends, 100), "ms")
    out.put("live.index.search_ms_p50", ms(rec.durations("live.index.search")), "ms")
    out.put("live.index.search_quiescent_ms_p50", ms(quiescent), "ms")
    out.put("live.index.seals", stats["seals"], "count")
    out.put("live.index.segments_final", stats["segments"], "count")
    out.put("live.compaction.count", stats["compactions"], "count")
    out.put("live.compaction.retries", stats["compaction"]["retries"], "count")
    out.put("live.compaction.wait_s", float(rec.durations("live.compaction.wait")[0]), "s")
    out.put("live.index.disk_bytes_per_reading", tree_bytes(directory) / series.size, "B")
    recovers = [
        workloads.recover_and_check(directory, data, int(p), out)
        for p in data.extra["recover_positions"][:3]
    ]
    out.put("live.index.recover_s", statistics.median(recovers), "s")

    # The journal alone: the same batches into a scratch WAL.
    wal_path = os.path.join(workdir, "scratch-wal.log")
    wal = repro.WriteAheadLog.create(wal_path, fsync=False)
    try:
        batches = range(initial, series.size, workloads.LIVE_BATCH)
        journal = probe.spanned(
            "live.wal.append", len(batches),
            lambda i: wal.append(series[batches[i]:batches[i] + workloads.LIVE_BATCH]),
        )
    finally:
        wal.close()
    out.put("live.wal.append_us_p50", us(journal), "us")
    out.put("live.wal.bytes_per_reading", os.path.getsize(wal_path) / readings, "B")
    with rec.span("live.wal.replay"):
        repro.WriteAheadLog.replay(wal_path)
    out.put("live.wal.replay_ms", ms(rec.durations("live.wal.replay")), "ms")

# ----------------------------------------------------------------------
def run(cfg: Config, rec: SpanRecorder) -> Outcome:
    """The traced run of ``cfg.workload``: all three probe groups, the
    workload's own at full size."""
    out = Outcome()
    sizes = cfg.sizes
    away = dataclasses.replace(
        cfg,
        sizes=dataclasses.replace(
            sizes,
            frozen_windows=sizes.probe_frozen_windows,
            engine_windows=sizes.probe_engine_windows,
            live_initial=sizes.probe_live_initial,
        ),
    )
    home = {"twin_sparse": "frozen", "twin_dense": "frozen",
            "engine_mix": "engine", "live_ingest": "live"}[cfg.workload]

    def probe(group: str) -> Probe:
        return Probe(out, rec, cfg if group == home else away, group == home)

    frozen = probe("frozen")
    dense = cfg.workload == "twin_dense"
    fraction = workloads.DENSE_FRACTION if dense else workloads.SPARSE_FRACTION
    data = workloads.twin_inputs(frozen.cfg, fraction)
    digests = {"frozen": data.digest}
    frozen_group(frozen, data)

    engine = probe("engine")
    data = workloads.engine_inputs(engine.cfg)
    digests["engine"] = data.digest
    engine_group(engine, data)

    live = probe("live")
    initial = live.cfg.sizes.live_initial
    # A third of the untraced run's readings: on the live workload the
    # traced run ingests three times (untraced, traced, untraced).
    appended = (
        int(sizes.live_readings_per_second * cfg.seconds / 3) if live.home
        else sizes.probe_live_appended
    )
    data = workloads.live_inputs(live.cfg, initial, appended)
    digests["live"] = data.digest
    live_group(live, data, initial)

    out.info["inputs_sha256"] = digests[home]
    return out
