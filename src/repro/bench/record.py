"""Benchmark records: the shared JSON artifact envelope, and the
EXPERIMENTS.md generator.

Artifact envelope
-----------------
``benchmarks/bench_scaling.py`` — the one runner outside twinbench that
writes a JSON artifact — does so through :func:`write_artifact`, which
wraps the script's result sections in one schema-versioned envelope —
``schema``, ``kind``, and a ``meta`` block (generation time, seed,
cpu_count, git revision, python version) — and serializes with sorted
keys so artifacts diff stably. The ``bench-writes`` lint holds any
other ``BENCH_*.json`` writer to the same path.

EXPERIMENTS.md generator
------------------------
``python -m repro.bench.record --output EXPERIMENTS.md`` executes the
intro experiment and Figures 4-8 on both datasets and renders one
markdown report with, per experiment: the paper's qualitative claim,
the measured series, and the shape-check verdicts. The hand-written
analysis in the repository's EXPERIMENTS.md wraps the output of this
module (see its header for the exact invocation used).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

from .._util import available_cpu_count
from ..exceptions import InvalidParameterError
from . import experiments as exp
from .reporting import to_markdown

#: Envelope schema written by :func:`write_artifact`.
ARTIFACT_SCHEMA = "repro.bench/1"

#: Top-level keys the envelope owns; result sections may not shadow them.
RESERVED_KEYS = ("schema", "kind", "meta")


def git_revision() -> str | None:
    """The working tree's short git revision, or ``None`` outside a
    repository (artifacts must still be writable from an sdist)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def make_meta(*, seed=None) -> dict:
    """The envelope ``meta`` block: where, when and from what this
    artifact was generated."""
    meta = {
        "generated_unix": round(time.time(), 3),  # lint: disable=wall-clock epoch timestamp, not a duration
        "cpu_count": available_cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_revision(),
    }
    if seed is not None:
        meta["seed"] = int(seed)
    return meta


def make_artifact(results: dict, *, kind: str, seed=None) -> dict:
    """Wrap a script's result sections in the shared envelope."""
    if not isinstance(results, dict):
        raise InvalidParameterError(
            f"artifact results must be a dict, got {type(results).__name__}"
        )
    clashes = [key for key in RESERVED_KEYS if key in results]
    if clashes:
        raise InvalidParameterError(
            f"result sections may not use reserved envelope keys: {clashes}"
        )
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "kind": str(kind),
        "meta": make_meta(seed=seed),
    }
    payload.update(results)
    return payload


def write_artifact(path, results: dict, *, kind: str, seed=None) -> dict:
    """Write one enveloped, stably-ordered ``BENCH_*.json`` artifact.

    Keys are sorted at every level so two runs of the same benchmark
    differ only where measurements differ. Returns the full payload.
    """
    payload = make_artifact(results, kind=kind, seed=seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


#: The paper's qualitative claim for each figure, quoted/condensed from
#: Section 6.2 — what the measured series are compared against.
PAPER_CLAIMS = {
    "fig4": (
        "TS-Index outperforms the rest in every setting; at least an "
        "order of magnitude faster than KV-Index and Sweepline; "
        "consistently better than iSAX; Sweepline flat in ε; all index "
        "methods degrade as ε grows."
    ),
    "fig5": (
        "Increasing l slightly slows Sweepline/KV-Index/iSAX but makes "
        "TS-Index *faster* (higher-level pruning, fewer leaves accessed)."
    ),
    "fig6": (
        "Per-subsequence z-normalization does not change the picture: "
        "TS-Index outperforms iSAX in all cases (KV-Index inapplicable)."
    ),
    "fig7": (
        "On raw (non-normalized) data TS-Index copes better than all "
        "the rest."
    ),
    "fig8a": (
        "KV-Index needs the least memory; iSAX two to three times less "
        "than TS-Index; all fit in main memory."
    ),
    "fig8b": (
        "KV-Index builds far faster than both tree indices (no splits, "
        "only means)."
    ),
    "intro": (
        "On EEG, a Chebyshev query returned 1,034 twins while the "
        "equivalent Euclidean query (radius ε·sqrt(l)) returned "
        "127,887 subsequences (~124x) with zero false negatives."
    ),
}


def figure_section(data: exp.FigureData) -> str:
    """One markdown section for an ε- or length-sweep figure."""
    rows = []
    for i, value in enumerate(data.sweep_values):
        row = {data.sweep_name: value}
        for method, series in data.series_ms.items():
            row[f"{method} (ms)"] = round(series[i], 2)
        rows.append(row)
    checks = exp.check_figure_shape(data)
    verdicts = "; ".join(
        f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks.items()
    )
    return (
        f"### {data.figure} / {data.dataset}\n\n"
        f"{to_markdown(rows)}\n\n"
        f"Shape checks: {verdicts}\n"
    )


def run_dataset(ctx: exp.ExperimentContext) -> list[str]:
    """All experiment sections for one dataset context."""
    sections = []

    intro = exp.run_intro(ctx)
    sections.append(
        f"### intro / {ctx.dataset}\n\n"
        + to_markdown(
            [
                {
                    "epsilon": intro["epsilon"],
                    "queries": intro["queries"],
                    "twin results": intro["twin_results"],
                    "euclidean results": intro["euclidean_results"],
                    "excess factor": round(intro["excess_factor"], 1),
                    "missed twins": intro["missed_twins"],
                }
            ]
        )
        + "\n"
    )

    for runner in (exp.run_figure4, exp.run_figure5, exp.run_figure6, exp.run_figure7):
        sections.append(figure_section(runner(ctx)))

    fig8 = exp.run_figure8(ctx)
    sections.append(
        f"### fig8 / {ctx.dataset}\n\n" + to_markdown(fig8["rows"]) + "\n"
    )
    return sections


def generate_markdown(contexts) -> str:
    """The full measured-results document body."""
    parts = ["## Measured results\n"]
    for ctx in contexts:
        parts.append(
            f"\n## Dataset `{ctx.dataset}` — scale {ctx.scale:g} "
            f"(n = {len(ctx.series)}), {ctx.query_count} queries of "
            f"length {exp.DEFAULT_LENGTH}\n"
        )
        parts.extend(run_dataset(ctx))
    parts.append("\n## Paper claims referenced above\n")
    for key, claim in PAPER_CLAIMS.items():
        parts.append(f"* **{key}** — {claim}")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    """CLI entry point for the record generator."""
    parser = argparse.ArgumentParser(
        description="Run all experiments and emit a markdown record."
    )
    parser.add_argument("--output", default="-", help="output path or - for stdout")
    parser.add_argument("--queries", type=int, default=30)
    parser.add_argument("--scale-insect", type=float, default=1.0)
    parser.add_argument("--scale-eeg", type=float, default=0.1)
    args = parser.parse_args(argv)

    contexts = [
        exp.ExperimentContext(
            dataset="insect", scale=args.scale_insect, query_count=args.queries
        ),
        exp.ExperimentContext(
            dataset="eeg", scale=args.scale_eeg, query_count=args.queries
        ),
    ]
    document = generate_markdown(contexts)
    if args.output == "-":
        sys.stdout.write(document)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
