"""Command-line front end: the paper's experiments, the serving engine,
the live plane and metrics export.

Reproduce the paper's evaluation (Section 6: the intro experiment,
Figures 4-8, Tables 1-2) — one *run* step that measures and writes a
data file, one *evaluate* step that only reads it::

    python -m repro.cli run --data EXPERIMENTS.json
    python -m repro.cli evaluate --data EXPERIMENTS.json --output EXPERIMENTS.md

``run`` defaults to the constants the committed EXPERIMENTS.json was
measured at; ``--scale-insect`` / ``--scale-eeg`` truncate the surrogate
series so tree construction stays tractable in pure Python (every
method then answers the same queries over the same, fewer, windows,
which preserves the orderings the paper reports). ``evaluate`` exits
non-zero when a robust claim fails.

Drive the sharded query engine (:mod:`repro.engine`)::

    python -m repro.cli engine build --output idx.rts --dataset insect \
        --scale 0.1 --length 100 --shards 4          # frozen shards
    python -m repro.cli engine query --index idx.rts --position 250 \
        --epsilon 0.5
    python -m repro.cli engine query --index idx.rts --position 250 --knn 5
    python -m repro.cli engine stats --index idx.rts

Drive the live ingestion plane (:mod:`repro.live`) — a durable,
appendable index with WAL recovery::

    python -m repro.cli live init --path ./traffic --length 100
    python -m repro.cli live append --path ./traffic --input readings.csv
    python -m repro.cli live append --path ./traffic --values 1.5,2.0,1.8
    python -m repro.cli live query --path ./traffic --position 250 \
        --epsilon 0.5
    python -m repro.cli live stats --path ./traffic

Inspect the observability plane (:mod:`repro.obs`) — the `stats`
subcommands also take ``--json`` for machine-readable snapshots::

    python -m repro.cli engine stats --index idx.rts --json
    python -m repro.cli live stats --path ./traffic --json
    python -m repro.cli obs export --format prometheus
    python -m repro.cli obs export --format json
"""

from __future__ import annotations

import argparse
import sys

from .bench import experiments as exp
from .bench.reporting import format_table


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests).

    The :data:`SUBSYSTEMS` are dispatched to their own parsers (see
    :func:`build_engine_parser` and friends) before this one runs; they
    are listed here so help and error messages stay complete.
    """
    from .indices.base import available_methods, extended_methods

    parser = argparse.ArgumentParser(
        prog="repro-twin",
        description="Run and render the paper's experiments, or drive "
        "the sharded query engine, the live plane and metrics.",
        epilog="query planes: paper methods "
        f"{', '.join(available_methods())}; "
        f"extended planes {', '.join(extended_methods())}.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="measure the intro experiment, Figures 4-8 and Tables 1-2 "
        "on both surrogates and write the data file",
    )
    run.add_argument("--data", required=True, help="data file to write")
    run.add_argument(
        "--queries",
        type=int,
        default=exp.DEFAULT_QUERY_COUNT,
        help=f"workload size (default: {exp.DEFAULT_QUERY_COUNT}; "
        f"paper: {exp.PAPER_QUERY_COUNT})",
    )
    for name, scale in exp.DEFAULT_SCALES.items():
        run.add_argument(
            f"--scale-{name}",
            type=float,
            default=scale,
            help=f"fraction of the {name} series to use (default: {scale:g})",
        )
    run.add_argument(
        "--seed", type=int, default=1234, help="workload seed (default: 1234)"
    )

    evaluate = commands.add_parser(
        "evaluate",
        help="render a data file written by `run` as markdown "
        "(EXPERIMENTS.md); reads nothing else",
    )
    evaluate.add_argument("--data", required=True, help="data file to read")
    evaluate.add_argument(
        "--output", default="-", help="output path or - for stdout"
    )

    for name in SUBSYSTEMS:
        commands.add_parser(
            name, help=f"see `repro-twin {name} --help`", add_help=False
        )
    return parser


def run_experiments(args) -> int:
    """The ``run`` command: measure once, write the data file."""
    from .bench.record import EXPERIMENTS_KIND, write_artifact

    results = exp.run_all(
        scales={name: getattr(args, f"scale_{name}") for name in exp.DEFAULT_SCALES},
        query_count=args.queries,
        seed=args.seed,
    )
    write_artifact(args.data, results, kind=EXPERIMENTS_KIND, seed=args.seed)
    print(f"wrote {args.data} in {results['config']['wall_seconds']:g} s")
    return 0


def run_evaluate(args) -> int:
    """The ``evaluate`` command: render the data file; exit 1 when a
    robust claim fails."""
    import json

    from .bench import record

    try:
        with open(args.data, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {args.data}: {exc}") from exc
    found = (payload.get("schema"), payload.get("kind")) if isinstance(payload, dict) else None
    if found != (record.ARTIFACT_SCHEMA, record.EXPERIMENTS_KIND):
        raise SystemExit(
            f"error: {args.data} is not a {record.ARTIFACT_SCHEMA} "
            f"{record.EXPERIMENTS_KIND!r} artifact written by `repro-twin run`"
        )
    document = record.evaluate(payload)
    if args.output == "-":
        sys.stdout.write(document)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    failed = record.robust_failures(payload)
    for failure in failed:
        print(f"robust claim failed: {failure}", file=sys.stderr)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Engine subcommands (repro.engine)
# ----------------------------------------------------------------------
def _add_query_arguments(query: argparse.ArgumentParser, noun: str) -> None:
    """The arguments ``engine query`` and ``live query`` share; ``noun``
    names the parts the plane fans out over ("shard" / "segment")."""
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--position",
        type=int,
        help="use the indexed window at this position as the query",
    )
    what.add_argument(
        "--query-file",
        help="CSV/text file with the query values in the raw value "
        "domain (mapped into the index's domain automatically)",
    )
    query.add_argument(
        "--epsilon", type=float, default=None, help="twin threshold ε"
    )
    query.add_argument(
        "--knn", type=int, default=None, help="run a k-NN query instead of ε"
    )
    query.add_argument(
        "--query-length",
        type=int,
        default=None,
        help="use only the first m values of the query (variable-length "
        "twin search over window prefixes, any m <= l; tail positions "
        "included)",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=10,
        help="matches to print (default: 10; totals always shown)",
    )
    query.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="serial",
        help=f"{noun} fan-out: serial in-process walk, a thread pool, or "
        f"a process pool whose workers mmap each {noun}'s archive by path "
        "(default: serial; results are byte-identical)",
    )


def build_engine_parser() -> argparse.ArgumentParser:
    """Parser for the ``engine build|query|stats`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-twin engine",
        description="Build, query and inspect sharded twin-query engines.",
    )
    commands = parser.add_subparsers(dest="engine_command", required=True)

    build = commands.add_parser(
        "build", help="build a sharded TS-Index and save it to disk"
    )
    build.add_argument(
        "--output", required=True, help="archive directory to write, e.g. idx.rts"
    )
    source = build.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        choices=("insect", "eeg"),
        default="insect",
        help="surrogate dataset to index (default: insect)",
    )
    source.add_argument("--input", help="CSV/text file with one series column")
    build.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="fraction of the dataset to index (default: 0.1)",
    )
    build.add_argument(
        "--length", type=int, default=100, help="window length (default: 100)"
    )
    build.add_argument(
        "--normalization",
        choices=("none", "global", "per_window"),
        default="global",
        help="value-preparation regime (default: global)",
    )
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count (default: one per available core, at least "
        "256 windows each). Shards build one after another in the "
        "calling thread: more shards buy smaller trees and process "
        "fan-out, not build parallelism",
    )

    query = commands.add_parser(
        "query", help="run a twin or k-NN query against a saved engine"
    )
    query.add_argument("--index", required=True, help="archive built by `engine build`")
    _add_query_arguments(query, "shard")

    stats = commands.add_parser(
        "stats", help="per-shard structural stats of a saved engine"
    )
    stats.add_argument("--index", required=True, help="archive built by `engine build`")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as one JSON object instead of tables",
    )
    return parser


def _engine_series(args):
    if args.input:
        from .data import load_series

        return load_series(args.input)
    from .data import load_dataset

    return load_dataset(args.dataset, scale=args.scale)


def _engine_load(path):
    from .engine import ShardedTSIndex
    from .persistence import load_index

    engine = load_index(path)
    if not isinstance(engine, ShardedTSIndex):
        raise SystemExit(
            f"{path}: not a sharded engine archive (got "
            f"{type(engine).__name__}; build one with `engine build`)"
        )
    return engine


def _fanout_pool(kind: str):
    """The fan-out executor behind a ``--executor`` flag: ``None``
    (serial), a thread pool, or a process pool sized to the CPUs this
    process may actually run on."""
    if kind == "thread":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(thread_name_prefix="repro-cli")
    if kind == "process":
        from concurrent.futures import ProcessPoolExecutor

        from ._util import available_cpu_count

        return ProcessPoolExecutor(max_workers=available_cpu_count())
    return None


def _run_plane_query(index, args) -> int:
    """Run one search/k-NN query against any plane and print the result.

    The shared query path of the ``engine query`` and ``live query``
    subcommands (arguments: :func:`_add_query_arguments`): the query
    comes from ``--position`` (already in the index's value domain) or
    ``--query-file`` (raw values, mapped by :class:`~repro.query.QuerySpec`
    ``domain="raw"``) and execution routes through the unified pipeline.
    Queries of any length ``m <= l`` are served (``--query-length``
    truncates to a prefix; a short ``--query-file`` works as-is) — the
    planner dispatches them to the planes' variable-length kernels.
    """
    import numpy as np

    from .query import QuerySpec, execute

    if (args.epsilon is None) == (args.knn is None):
        raise SystemExit("pass exactly one of --epsilon or --knn")
    if args.position is not None:
        block = index.source.window_block(args.position, args.position + 1)
        query, domain = np.array(block[0]), "index"
    else:
        from .data import load_series

        query, domain = load_series(args.query_file).values, "raw"
    prefix = args.query_length
    if prefix is not None:
        if not 1 <= prefix <= query.size:
            raise SystemExit(
                f"--query-length must lie in [1, {query.size}] "
                f"(the query holds {query.size} values), got {prefix}"
            )
        query = np.array(query[:prefix])
    if args.knn is not None:
        spec = QuerySpec(query=query, mode="knn", k=args.knn, domain=domain)
    else:
        spec = QuerySpec(
            query=query, mode="search", epsilon=args.epsilon, domain=domain
        )
    pool = _fanout_pool(args.executor)
    try:
        result = execute(index, spec, executor=pool)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    if args.knn is not None:
        print(f"{len(result)} nearest windows:")
    else:
        print(f"{len(result)} twins within epsilon={args.epsilon:g}:")
    rows = [
        {"position": position, "distance": round(distance, 6)}
        for position, distance in list(result)[: max(0, args.limit)]
    ]
    if rows:
        print(format_table(rows))
    if len(result) > len(rows):
        print(f"... and {len(result) - len(rows)} more")
    stats = result.stats
    print(
        f"stats: candidates={stats.candidates} "
        f"nodes_visited={stats.nodes_visited} "
        f"nodes_pruned={stats.nodes_pruned} "
        f"leaves_accessed={stats.leaves_accessed}"
    )
    return 0


def build_live_parser() -> argparse.ArgumentParser:
    """Parser for the ``live init|append|query|stats`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-twin live",
        description="Initialize, feed and query a durable live "
        "ingestion plane (WAL + sealed segments).",
    )
    commands = parser.add_subparsers(dest="live_command", required=True)

    init = commands.add_parser(
        "init", help="initialize a live index directory"
    )
    init.add_argument("--path", required=True, help="live index directory")
    init.add_argument(
        "--length", type=int, required=True, help="window length l"
    )
    init.add_argument(
        "--normalization",
        choices=("none", "per_window"),
        default="none",
        help="value regime (global z-norm is undefined for a growing "
        "series; default: none)",
    )
    init.add_argument(
        "--seal-threshold",
        type=int,
        default=None,
        help="delta windows per sealed segment (default: library default)",
    )
    init.add_argument(
        "--max-segments",
        type=int,
        default=None,
        help="segment count that triggers compaction (default: library "
        "default)",
    )
    seed_source = init.add_mutually_exclusive_group()
    seed_source.add_argument(
        "--input", help="CSV/text file with initial readings (optional)"
    )
    seed_source.add_argument(
        "--dataset",
        choices=("insect", "eeg"),
        help="seed with a surrogate dataset instead of a file",
    )
    init.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="fraction of --dataset to seed with (default: 0.05)",
    )
    init.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every journal write (power-loss safe, slower)",
    )

    append = commands.add_parser(
        "append", help="durably append readings to a live index"
    )
    append.add_argument("--path", required=True, help="live index directory")
    what = append.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--values", help="comma-separated readings, e.g. 1.5,2.0,1.8"
    )
    what.add_argument("--input", help="CSV/text file with readings")

    query = commands.add_parser(
        "query", help="run a twin or k-NN query against a live index"
    )
    query.add_argument("--path", required=True, help="live index directory")
    _add_query_arguments(query, "segment")

    stats = commands.add_parser(
        "stats", help="segment/delta/WAL stats of a live index"
    )
    stats.add_argument("--path", required=True, help="live index directory")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as one JSON object instead of tables",
    )
    return parser


def _live_readings(args):
    """Readings from --values or --input for `live append`."""
    import numpy as np

    if args.values:
        try:
            return np.asarray(
                [float(part) for part in args.values.split(",") if part.strip()]
            )
        except ValueError as exc:
            raise SystemExit(f"--values: {exc}") from exc
    from .data import load_series

    return load_series(args.input).values


def run_live(argv) -> int:
    """Execute one ``live`` subcommand; returns an exit code."""
    from .exceptions import ReproError

    try:
        return _run_live(argv)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _run_live(argv) -> int:
    from .live import LiveTwinIndex

    args = build_live_parser().parse_args(argv)

    if args.live_command == "init":
        initial = None
        if args.input:
            from .data import load_series

            initial = load_series(args.input).values
        elif args.dataset:
            from .data import load_dataset

            initial = load_dataset(args.dataset, scale=args.scale)
        options = {}
        if args.seal_threshold is not None:
            options["seal_threshold"] = args.seal_threshold
        if args.max_segments is not None:
            options["max_segments"] = args.max_segments
        with LiveTwinIndex.create(
            args.path,
            initial,
            length=args.length,
            normalization=args.normalization,
            fsync=args.fsync,
            **options,
        ) as live:
            print(f"initialized {live!r} at {args.path}")
        return 0

    if args.live_command == "append":
        readings = _live_readings(args)
        with LiveTwinIndex.recover(args.path) as live:
            added = live.append(readings)
            print(
                f"appended {len(readings)} readings "
                f"({added} new windows); now {live!r}"
            )
        return 0

    if args.live_command == "query":
        with LiveTwinIndex.recover(args.path) as live:
            return _run_plane_query(live, args)

    with LiveTwinIndex.recover(args.path) as live:
        snapshot = live.stats()
        if args.json:
            import json

            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        segment_rows = snapshot.pop("segment_stats")
        print(f"{live!r} normalization={snapshot['normalization']}")
        print(format_table([snapshot]))
        if segment_rows:
            print(format_table(segment_rows))
    return 0


def build_obs_parser() -> argparse.ArgumentParser:
    """Parser for the ``obs export`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-twin obs",
        description="Export the process-default metrics registry "
        "(Prometheus text exposition or a JSON snapshot).",
    )
    commands = parser.add_subparsers(dest="obs_command", required=True)

    export = commands.add_parser(
        "export", help="dump the default metrics registry"
    )
    export.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="exposition format (default: prometheus)",
    )
    return parser


def run_obs(argv) -> int:
    """Execute one ``obs`` subcommand; returns an exit code.

    A fresh process has an empty default registry, so this is mostly
    useful after in-process work (or from tools embedding the CLI); it
    exists so every surface of :mod:`repro.obs` is scriptable.
    """
    from .obs import default_registry, to_json, to_prometheus

    args = build_obs_parser().parse_args(argv)
    registry = default_registry()
    if args.format == "json":
        print(to_json(registry))
    else:
        # Prometheus exposition of an empty registry is the empty
        # string; print() still terminates the output with a newline.
        sys.stdout.write(to_prometheus(registry))
    return 0


def run_engine(argv) -> int:
    """Execute one ``engine`` subcommand; returns an exit code.

    Library errors (bad parameters, unreadable archives, mismatched
    queries) surface as clean one-line messages instead of tracebacks.
    """
    from .exceptions import ReproError

    try:
        return _run_engine(argv)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _run_engine(argv) -> int:
    args = build_engine_parser().parse_args(argv)

    if args.engine_command == "build":
        from .engine import ShardedTSIndex
        from .persistence import save_index

        series = _engine_series(args)
        engine = ShardedTSIndex.build(
            series,
            args.length,
            normalization=args.normalization,
            shards=args.shards,
        )
        save_index(engine, args.output)
        build = engine.build_stats
        print(
            f"built {engine!r} in {build.seconds:.2f}s "
            f"(shards in sequence; {build.nodes} nodes, height {build.height})"
        )
        print(f"saved to {args.output}")
        return 0

    if args.engine_command == "query":
        return _run_plane_query(_engine_load(args.index), args)

    engine = _engine_load(args.index)
    if args.json:
        import json

        snapshot = {
            "normalization": engine.source.normalization.value,
            "shards": engine.shard_stats(),
        }
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"{engine!r} normalization={engine.source.normalization.value}")
    print(format_table(engine.shard_stats()))
    return 0


#: Subsystems with a parser of their own, dispatched on ``argv[0]``.
SUBSYSTEMS = {
    "engine": run_engine,
    "live": run_live,
    "obs": run_obs,
}
COMMANDS = ("run", "evaluate") + tuple(SUBSYSTEMS)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in SUBSYSTEMS:
        return SUBSYSTEMS[argv[0]](argv[1:])
    misplaced = [word for word in argv[1:] if word in SUBSYSTEMS]
    if misplaced and argv[0] not in COMMANDS:
        raise SystemExit(
            f"`{misplaced[0]}` must be the first argument: repro-twin "
            f"{misplaced[0]} ... (see `repro-twin {misplaced[0]} --help`)"
        )
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_experiments(args)
    return run_evaluate(args)


if __name__ == "__main__":
    sys.exit(main())
