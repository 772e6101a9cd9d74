"""Plain-text and markdown table rendering: :func:`format_table` for
the CLI's stats and query output, :func:`to_markdown` for EXPERIMENTS.md
(one row per parameter value, one column per method)."""

from __future__ import annotations


def format_table(rows: list[dict], *, columns: list[str] | None = None) -> str:
    """Fixed-width table from a list of dicts (one dict per row)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_cell(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    rule = "  ".join("-" * widths[column] for column in columns)
    lines = [header, rule]
    for row in rows:
        lines.append(
            "  ".join(_cell(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def to_markdown(rows: list[dict], *, columns: list[str] | None = None) -> str:
    """GitHub-flavoured markdown table from a list of dicts."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(str(column) for column in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_cell(row.get(column)) for column in columns) + " |"
        )
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
