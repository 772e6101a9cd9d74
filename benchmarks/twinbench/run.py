"""twinbench — one end-to-end + per-layer benchmark for the repository.

    python3 benchmarks/twinbench/run.py --workload twin_sparse --seed 1
    python3 benchmarks/twinbench/run.py --workload twin_sparse --seed 1 --trace 1
    python3 benchmarks/twinbench/run.py --repeat-check 3

One run = one workload: inputs are generated from ``--seed``, the
program is set up, operations run in a closed loop with one client
thread, a sample of answers is compared with a brute-force oracle, and
every metric is printed by name with its unit. The last line of
standard output is one JSON object with the metrics ``BENCHMARK.json``
names: the end-to-end ones for ``--trace 0`` (front doors only), the
per-layer ones for ``--trace 1`` (the benchmark's own spans around
calls into each layer). See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")

#: End-to-end metrics that are printed but not in ``BENCHMARK.json``
#: (raw timings, whose spread on this box is too close to the largest
#: bound the contract allows, and workload-specific ones):
#: ``(better, bound)``. ``--repeat-check`` reports them against these
#: bounds; only the ``BENCHMARK.json`` metrics decide its exit code.
EXTRA_BOUNDS = {
    "query_ms_p50": ("lower", 0.25),
    "query_ms_p90": ("lower", 0.25),
    "query_ms_p95": ("lower", 0.25),
    "query_ms_p99": ("lower", 0.25),
    "ops_per_s": ("higher", 0.25),
    "ingest_readings_per_s": ("higher", 0.25),
}

_METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    # The program lives in src/; a directory holding only the benchmark
    # cannot run it, and says so instead of printing a result.
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"twinbench: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [source, os.path.dirname(HERE)]
    from twinbench import workloads

    traced = bool(args.trace)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    # Everything the program spills (live directories, the process
    # executor's spool) stays inside the checkout.
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    cfg = workloads.Config(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        sizes=workloads.SMOKE if args.smoke else workloads.FULL,
        workdir=workdir,
    )
    print(
        f"twinbench workload={cfg.workload} seed={cfg.seed} seconds={cfg.seconds:g} "
        f"trace={int(traced)} sizes={'smoke' if args.smoke else 'full'} "
        f"clients=1 engine_workers={workloads.ENGINE_WORKERS} cpus={os.cpu_count()}"
    )
    try:
        if traced:
            from twinbench import probes
            from twinbench.spans import SpanRecorder

            recorder = SpanRecorder()
            outcome = probes.run(cfg, recorder)
            out = args.out or WORK
            os.makedirs(out, exist_ok=True)
            trace_file = os.path.join(out, f"trace-{cfg.workload}.json")
            recorder.write(trace_file, workload=cfg.workload, seed=cfg.seed)
            outcome.info["trace_file"] = os.path.relpath(trace_file, ROOT)
            outcome.info["spans"] = len(recorder.spans)
        else:
            outcome = workloads.run(cfg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in outcome.info.items():
        print(f"{key}: {value}")
    for name, metric in outcome.metrics.items():
        note = f"   # {metric.note}" if metric.note else ""
        print(f"{name} = {metric.value!r} {metric.unit}{note}")
    share = outcome.failed / max(1, outcome.attempted)
    print(f"failed_ops_share = {share!r} ratio   # {outcome.failed} of {outcome.attempted}")

    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    wrong = [
        m["name"] for m in wanted
        if m["name"] in outcome.metrics and outcome.metrics[m["name"]].unit != m["unit"]
    ]
    if missing or wrong:
        print(f"twinbench: metrics missing {missing}, wrong unit {wrong}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m["name"]: {
                        "value": outcome.metrics[m["name"]].value,
                        "unit": m["unit"],
                    }
                    for m in wanted
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# --repeat-check
# ----------------------------------------------------------------------
def _child_metrics(workload: str, seed: int, args: argparse.Namespace) -> dict[str, float]:
    """Every ``name = value unit`` line of one end-to-end child run."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {
        match[1]: float(match[2])
        for match in map(_METRIC_LINE.match, lines[:-1])
        if match and match[1] != "failed_ops_share"
    }


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``, spread = (q3 − q1) / median."""
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle


def repeat_check(args: argparse.Namespace, spec: dict) -> int:
    """Two sets of ``N`` runs per workload, one seed per run; fails when
    a ``BENCHMARK.json`` metric's spread within the first set exceeds
    its bound (``setup_s`` excepted, as in the driver) or the second
    set's median is worse than the first's by more than the bound."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    runs = max(2, args.repeat_check)
    bad = 0
    chosen = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for workload in chosen:
        sets: list[dict[str, list[float]]] = []
        for _ in range(2):
            samples: dict[str, list[float]] = {}
            for seed in range(args.seed, args.seed + runs):
                for name, value in _child_metrics(workload, seed, args).items():
                    samples.setdefault(name, []).append(value)
            sets.append(samples)
        print(f"== {workload}: 2 sets x {runs} runs, seeds {args.seed}..{args.seed + runs - 1}")
        for name, (better, bound) in bounds.items():
            # A metric only some runs print (p99 needs 1 000 samples) is
            # compared when both sets have enough of it for quartiles.
            if min(len(samples.get(name, ())) for samples in sets) < 2:
                continue
            first, q1, q3, spread = _summary(sets[0][name])
            second = _summary(sets[1][name])[0]
            worse = (second - first) / first if better == "lower" else (first - second) / first
            verdict = "ok"
            if spread > bound and name != "setup_s":
                verdict = "SPREAD"
            if worse > bound:
                verdict = "SETS DISAGREE"
            if name in EXTRA_BOUNDS:
                verdict += " (not gated)"
            elif verdict != "ok":
                bad += 1
            print(
                f"{name:28s} median {first:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                f"spread {spread:.3f}  second median {second:.6g} "
                f"worse by {worse:+.3f}  bound {bound:g}  {verdict}"
            )
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", help="directory the trace is written to (default: .work/)")
    parser.add_argument("--repeat-check", type=int, nargs="?", const=3, metavar="N",
                        help="run every workload N times (default 3) in two sets and compare")
    args = parser.parse_args(argv)
    if args.repeat_check is not None:
        return repeat_check(args, spec)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
