"""The archive container is one decision, made in one module."""

import ast
import inspect
import json
import pathlib

import pytest

import repro
from repro import cli
from repro.engine import QueryEngine
from repro.exceptions import InvalidParameterError
from repro.live import LiveTwinIndex
from repro.live import store
from repro.live.wal import MANIFEST_NAME
from repro.persistence import load_index, save_index, serializer

SRC = pathlib.Path(repro.__file__).parent


def _code_strings(tree: ast.AST, identifiers: bool = True) -> list[str]:
    """Every string literal of a module, and by default every identifier
    too — comments never reach the AST, and docstrings are skipped."""
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
        for field in ("id", "attr", "arg", "name") if identifiers else ():
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
        QueryEngine.save,
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
    assert mentions == {"live/store.py": [".npz"]}


def test_the_live_directory_is_spelled_in_one_module(tmp_path, series_values):
    with LiveTwinIndex.create(
        tmp_path / "live", series_values[:200], length=50, seal_threshold=64
    ) as live:
        assert live.segment_count == 2
    # What is on disk is what repro.live.store says is on disk ...
    names = sorted(path.name for path in (tmp_path / "live").iterdir())
    assert names == [store.MANIFEST_NAME, *(s.file for s in live.segments), store.WAL_NAME]
    assert all(
        s.file.startswith(store.SEGMENT_PREFIX) and s.file.endswith(store.SEGMENT_SUFFIXES[0])
        for s in live.segments
    )
    manifest = json.loads((tmp_path / "live" / store.MANIFEST_NAME).read_text())
    assert set(manifest) == {
        "format", "length", "normalization", "params", "seal_threshold",
        "fsync", "wal_offset", "segments",
    }  # fmt: skip
    assert all(set(entry) == {"start", "stop", "file"} for entry in manifest["segments"])
    assert store.Manifest.read(tmp_path / "live").segments == tuple(
        (s.start, s.stop, s.file) for s in live.segments
    )

    # ... and no other module spells a file name or a manifest key of it.
    # ("wal_offset" stands for the keys: the others are everyday words.)
    protocol = {
        store.WAL_NAME, store.MANIFEST_NAME, store.SEGMENT_PREFIX, store.QUARANTINE_DIR,
        "wal_offset",
    }  # fmt: skip
    assert protocol == {"wal.log", "MANIFEST.json", "seg-", "quarantine", "wal_offset"}
    spelled = {}
    for path in sorted(SRC.rglob("*.py")):
        literals = _code_strings(ast.parse(path.read_text()), identifiers=False)
        hits = sorted({s for s in literals if s in protocol or s.startswith("seg-")})
        if hits:
            spelled[str(path.relative_to(SRC))] = hits
    assert list(spelled) == ["live/store.py"], spelled
