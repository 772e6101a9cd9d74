"""Tests for table rendering."""

import pytest

from repro.bench.reporting import format_table, to_markdown


@pytest.fixture()
def rows():
    return [
        {"method": "tsindex", "ms": 1.5},
        {"method": "sweepline", "ms": 30.25},
    ]


class TestFormatTable:
    def test_contains_all_cells(self, rows):
        text = format_table(rows)
        assert "tsindex" in text
        assert "30.250" in text

    def test_header_and_rule(self, rows):
        lines = format_table(rows).splitlines()
        assert "method" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 2 + len(rows)

    def test_column_selection(self, rows):
        text = format_table(rows, columns=["ms"])
        assert "tsindex" not in text

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_missing_cell_blank(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "1" in text and "2" in text


class TestMarkdown:
    def test_pipe_table(self, rows):
        text = to_markdown(rows)
        lines = text.splitlines()
        assert lines[0].startswith("| method")
        assert lines[1].startswith("| ---")
        assert len(lines) == 4

    def test_empty(self):
        assert to_markdown([]) == "(no rows)"
