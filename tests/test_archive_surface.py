"""The archive container is one decision, made in one module."""

import ast
import inspect
import json
import pathlib

import pytest

import repro
from repro import cli
from repro.engine import IndexRegistry
from repro.exceptions import InvalidParameterError
from repro.live import LiveTwinIndex
from repro.live.wal import MANIFEST_NAME
from repro.persistence import load_index, save_index, serializer

SRC = pathlib.Path(repro.__file__).parent


def _code_strings(tree: ast.AST) -> list[str]:
    """Every identifier and string literal of a module — comments never
    reach the AST, and docstrings are skipped."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                docstrings.add(id(body[0].value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.append(node.value)
        for field in ("id", "attr", "arg", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                found.append(value)
    return found


def test_one_container_and_no_way_to_ask_for_another(tmp_path, series_values):
    assert serializer.ARCHIVE_FORMATS == ("raw",)

    # The two keywords benchmarks/twinbench pins take their one value...
    index = repro.TSIndex.build(series_values[:600], 50).freeze()
    save_index(index, tmp_path / "idx", format="raw", fsync=False)
    assert load_index(tmp_path / "idx").size == index.size
    LiveTwinIndex.create(
        tmp_path / "live", series_values[:200], length=50, archive_format="raw"
    ).close()
    assert "archive_format" not in json.loads(
        (tmp_path / "live" / MANIFEST_NAME).read_text()
    )
    # ... and nothing else.
    with pytest.raises(InvalidParameterError, match="archive format"):
        save_index(index, tmp_path / "idx.npz", format="npz")
    with pytest.raises(InvalidParameterError, match="archive format"):
        LiveTwinIndex.create(tmp_path / "live2", length=50, archive_format="npz")
    assert not (tmp_path / "idx.npz").exists() and not (tmp_path / "live2").exists()

    # No other layer carries a format.
    for function in (
        IndexRegistry.save,
        LiveTwinIndex.__init__,
        LiveTwinIndex.from_source,
        LiveTwinIndex.recover,
    ):
        assert not any(
            "format" in name for name in inspect.signature(function).parameters
        ), function
    with LiveTwinIndex(series_values[:200], 50) as live:
        assert "archive_format" not in live.stats()
    for parser in (cli.build_engine_parser(), cli.build_live_parser()):
        subparsers = parser._subparsers._group_actions[0].choices
        for name, sub in subparsers.items():
            assert not any(
                "format" in option
                for action in sub._actions
                for option in action.option_strings
            ), name

    # Outside the serializer, the retired container is named once: the
    # suffix under which the live plane still finds legacy segments.
    mentions = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == pathlib.Path(serializer.__file__):
            continue
        hits = [s for s in _code_strings(ast.parse(path.read_text())) if "npz" in s.lower()]
        if hits:
            mentions[str(path.relative_to(SRC))] = hits
    assert mentions == {"live/index.py": [".npz"]}
