"""Save/load support for every index (extension).

The paper keeps indices in memory; real deployments want to build once
and reuse. :func:`save_index` writes one container — a *directory* of
uncompressed per-array ``.npy`` files plus a ``meta.json`` — holding
the raw series, the construction parameters and the method-specific
structure, flattened with explicit child offsets so reload is O(size)
with no recursion. :func:`load_index` maps the files instead of reading
them: cold starts are O(metadata), the page cache holds one shared copy
of the arrays across every process serving the archive, and frozen
envelopes are stored in their resident layout (per bound a
timestamp-major head and a node-major tail — :mod:`repro.core.frozen`
alone knows how they are cut), so nothing is copied or re-laid-out on
the way in. The directory commits atomically: ``meta.json`` is written
last via tmp-file + fsync + rename (the protocol of the live plane's
``MANIFEST.json``), so a crash mid-write leaves a directory without
valid metadata — which :func:`load_index` rejects loudly — never a
half-written archive that mmap would happily map. To ship an archive
compactly, ``tar -czf`` the directory.

**Legacy ``.npz`` files are read, never written.** A regular file is a
compressed single-file archive of an earlier version, whatever wrote
it; it loads into private memory through the same ``_load_*`` functions,
so migrating is ``save_index(load_index(old), new_dir)``.

Loaded indices answer queries identically to the originals — enforced
by round-trip tests. A TS-Index tree, pointer or frozen, standalone or a
shard, is stored in one format: the BFS, root-first, CSR arrays of
:data:`~repro.core.frozen.ARRAY_FIELDS`. A pointer tree stores them as
:func:`~repro.core.frozen.flatten` returns them, float64 envelopes
included, and loads back through :func:`~repro.core.frozen.unflatten`
bit for bit. A frozen index stores its arrays natively, envelopes as the
outward-rounded float32 head and tail parts it holds (each array file
records its own dtype), so loading one is pure array reads — no node
objects rebuilt, no windows re-inserted. Every layout older archives
hold is converted to that format in one place, :func:`_upgrade`, and
:class:`~repro.core.frozen.FrozenTSIndex` rounds and cuts whole or
float64 envelopes once, into private memory; either way the result is
exactly the arrays building the same tree gives today.

Standalone frozen dumps of per-window sources also embed the source's
rolling window statistics (``win_means`` / ``win_stds``): those are
block-computed over the *monolithic* series, so an archive of a
detached chunk (a live sealed segment) reloaded in another process
stays bitwise identical to the parent's in-memory segment.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import TYPE_CHECKING, Any, Mapping, NoReturn

import numpy as np

from .._util import POSITION_DTYPE
from ..core.frozen import (
    RAW_ARRAY_FIELDS,
    FrozenTSIndex,
    check_structure,
    flatten,
    unflatten,
)
from ..core.normalization import Normalization
from ..core.stats import BuildStats
from ..core.tsindex import TSIndex, TSIndexParams
from ..core.windows import WindowSource, assemble_source
from ..exceptions import InvalidParameterError, SerializationError
from ..indices.isax import ISAXIndex, ISAXParams, _ISAXNode
from ..indices.kvindex import KVIndex, KVIndexParams
from ..indices.sax import SAXAlphabet
from ..indices.sweepline import SweeplineSearch
from ..obs.metrics import HandleCache

if TYPE_CHECKING:  # runtime import would be circular; engine imports us
    from ..engine.sharding import ShardedTSIndex

    #: Everything :func:`save_index` writes and :func:`load_index` returns.
    Index = (
        TSIndex
        | FrozenTSIndex
        | ShardedTSIndex
        | KVIndex
        | ISAXIndex
        | SweeplineSearch
    )

#: Format marker written into every archive.
FORMAT_VERSION = 1

#: The on-disk containers :func:`save_index` can write.
ARCHIVE_FORMATS = ("raw",)

#: Commit marker of a raw archive directory (written last, atomically).
RAW_META_NAME = "meta.json"

_load_metrics = HandleCache(
    lambda registry: registry.histogram(
        "repro_archive_load_seconds",
        "Index archive open latency by on-disk container, in seconds "
        "(raw archives are mmapped, so this excludes the lazy page-in "
        "of the array data; npz marks loads of legacy archives).",
        labels=("format",),
    )
)


def _payload_for(index: Index) -> dict[str, Any]:
    from ..engine.sharding import ShardedTSIndex  # lazy: engine imports us

    if isinstance(index, ShardedTSIndex):
        return _dump_sharded(index)
    if isinstance(index, FrozenTSIndex):
        return _dump_frozen(index)
    if isinstance(index, TSIndex):
        return _dump_tsindex(index)
    if isinstance(index, KVIndex):
        return _dump_kvindex(index)
    if isinstance(index, ISAXIndex):
        return _dump_isax(index)
    if isinstance(index, SweeplineSearch):
        return _dump_sweepline(index)
    raise SerializationError(
        f"cannot serialize object of type {type(index).__name__}"
    )


def save_index(
    index: Index,
    path: str | os.PathLike[str],
    *,
    format: str = "raw",
    fsync: bool = True,
) -> None:
    """Serialize ``index`` to the archive *directory* ``path`` (created
    if absent, committed atomically; ``fsync=False`` skips the
    durability syncs for throwaway archives such as test fixtures).
    An archive already there is overwritten in place; a regular file,
    or a directory holding anything but an archive's own files, is
    refused with :class:`SerializationError` and left untouched.
    """
    # ``format`` has one value; the keyword stays only because
    # benchmarks/twinbench (frozen by BENCHMARK.json) passes "raw" and
    # probes "npz" for exactly this error to note "npz archives absent".
    if format not in ARCHIVE_FORMATS:
        raise InvalidParameterError(
            f"unknown archive format {format!r}; expected one of "
            f"{ARCHIVE_FORMATS}"
        )
    _write_raw(os.fspath(path), _payload_for(index), fsync=fsync)


class _RawArchive:
    """Lazy mapping view over a raw archive directory: ``data[field]``
    opens ``<dir>/<field>.npy`` with ``mmap_mode`` (read-only pages
    shared through the OS page cache). Quacks like the dict the npz
    path builds, so every ``_load_*`` works on both containers."""

    __slots__ = ("_path", "_mmap_mode")

    def __init__(self, path: str, mmap_mode: str | None):
        self._path = path
        self._mmap_mode = mmap_mode

    def _file(self, key: str) -> str:
        return os.path.join(self._path, f"{key}.npy")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._file(key))

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return np.load(
                self._file(key), mmap_mode=self._mmap_mode, allow_pickle=False
            )
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"cannot read array {key!r} of raw archive "
                f"{self._path!r}: {exc}"
            ) from exc


#: An open archive's arrays by name: a raw directory or a legacy
#: ``.npz`` file's members.
_Members = _RawArchive | dict[str, np.ndarray]


class _Meta(dict[str, Any]):
    """An archive's metadata (every JSON object in it): a key the
    loader needs and the archive lacks is a malformed archive."""

    def __missing__(self, key: str) -> NoReturn:
        raise SerializationError(f"archive metadata has no {key!r} entry")


def _write_raw(
    path: str, payload: dict[str, Any], *, fsync: bool = True
) -> None:
    """Write ``payload`` as an atomically committed raw archive
    directory: metadata is removed first (readers of a half-rewritten
    directory fail loudly, not silently stale), each array is written
    to a tmp name, fsynced and renamed into place, and ``meta.json``
    commits the archive last — the exact protocol of the live plane's
    manifest writes."""
    from ..live.wal import fsync_directory  # lazy: avoids cycle

    if os.path.exists(path) and not os.path.isdir(path):
        raise SerializationError(
            f"cannot write archive {path!r}: an archive is a directory, "
            "and a file is already there (remove it or pick another path)"
        )
    os.makedirs(path, exist_ok=True)
    stale = os.listdir(path)
    foreign = sorted(
        name
        for name in stale
        if name != RAW_META_NAME and not name.endswith((".npy", ".tmp"))
    )
    if foreign:
        raise SerializationError(
            f"cannot write archive {path!r}: the directory holds "
            f"{foreign[:3]}, which no archive contains — refusing to "
            "clear a directory that is not an archive"
        )
    meta_file = os.path.join(path, RAW_META_NAME)
    if RAW_META_NAME in stale:
        os.unlink(meta_file)
    for name in stale:
        if name != RAW_META_NAME:
            os.unlink(os.path.join(path, name))
    for key, value in payload.items():
        if key == "meta":
            continue
        target = os.path.join(path, f"{key}.npy")
        tmp = target + ".tmp"
        with open(tmp, "wb") as handle:
            np.save(handle, np.ascontiguousarray(value))
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    tmp = meta_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload["meta"])
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, meta_file)
    if fsync:
        fsync_directory(path)


def load_index(path: str | os.PathLike[str], *, mmap: bool = True) -> Index:
    """Restore an index previously written by :func:`save_index`.

    A directory is opened as a raw archive (``mmap=True`` maps the
    array files zero-copy; ``mmap=False`` reads them into private
    memory); a regular file is read as a legacy compressed ``.npz``
    archive, which keeps loading unchanged. Sharded engines remember the
    archive they came from (see
    :meth:`~repro.engine.sharding.ShardedTSIndex.attach_archive`), so
    process-pool fan-out can reopen the same archive by path inside
    each worker.
    """
    path = os.fspath(path)
    started = time.perf_counter()
    if os.path.isdir(path):
        container = "raw"
        data = _RawArchive(path, "r" if mmap else None)
        meta_file = os.path.join(path, RAW_META_NAME)
        try:
            with open(meta_file, "r", encoding="utf-8") as handle:
                meta = json.load(handle, object_hook=_Meta)
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"archive {path!r} has no valid metadata "
                "(uncommitted or torn raw archive?)"
            ) from exc
    else:
        container = "npz"
        try:
            with np.load(path, allow_pickle=False) as archive:
                data = {key: archive[key] for key in archive.files}
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"cannot read archive {path!r}: {exc}"
            ) from exc
        try:
            meta = json.loads(str(data["meta"][()]), object_hook=_Meta)
        except (KeyError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"archive {path!r} has no valid metadata"
            ) from exc
    if meta.get("format") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported archive format {meta.get('format')!r}"
        )
    method = meta.get("method")
    loaders = {
        "tsindex": _load_tsindex,
        "kvindex": _load_kvindex,
        "isax": _load_isax,
        "sweepline": _load_sweepline,
        "sharded_tsindex": _load_sharded,
    }
    if method not in loaders:
        raise SerializationError(f"unknown method {method!r} in archive")
    index = loaders[method](meta, data)
    _load_metrics().labels(format=container).observe(
        time.perf_counter() - started
    )
    if hasattr(index, "attach_archive"):
        index.attach_archive(path)
    return index


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _meta_for(
    index: Index, method: str, extra: dict[str, Any] | None = None
) -> str:
    source = index.source
    meta = {
        "format": FORMAT_VERSION,
        "method": method,
        "length": source.length,
        "normalization": source.normalization.value,
        "series_name": source.series.name,
        "build_stats": dataclasses.asdict(index.build_stats),
    }
    if extra:
        meta.update(extra)
    return json.dumps(meta)


def _source_from(meta: _Meta, data: _Members) -> WindowSource:
    from ..core.series import TimeSeries

    name = meta.get("series_name", "")
    length = int(meta["length"])
    normalization = Normalization(meta["normalization"])
    if "win_means" in data:
        # The archive carries the source's rolling statistics verbatim
        # (a per-window source over a *detached chunk*, e.g. a live
        # sealed segment: recomputing them standalone would move the
        # block boundaries of the blocked rolling std and break bitwise
        # identity with the parent plane).
        return assemble_source(
            np.asarray(data["series"]),
            length,
            normalization,
            means=np.asarray(data["win_means"]),
            stds=np.asarray(data["win_stds"]),
            name=name,
        )
    series = TimeSeries(data["series"], name=name)
    return WindowSource(series, length, normalization)


def _build_stats_from(meta: Mapping[str, Any]) -> BuildStats:
    return BuildStats(**meta.get("build_stats", {}))


# ----------------------------------------------------------------------
# TS-Index: one tree format (repro.core.frozen), older layouts upgraded
# ----------------------------------------------------------------------
def _tsindex_params_meta(params: TSIndexParams) -> dict[str, Any]:
    return {
        "min_children": params.min_children,
        "max_children": params.max_children,
        "split_metric": params.split_metric,
    }


def _dump_tsindex(index: TSIndex) -> dict[str, Any]:
    if index._root is None:
        raise SerializationError("cannot serialize an empty TS-Index")
    payload: dict[str, Any] = {
        "meta": _meta_for(
            index, "tsindex", {"params": _tsindex_params_meta(index.params)}
        ),
        "series": index.source.series.values,
    }
    payload.update(flatten(index._root, index.length))
    return payload


def _upgrade(data: _Members, prefix: str = "") -> dict[str, np.ndarray]:
    """The arrays of the tree stored under ``prefix``, in the one format
    :mod:`repro.core.frozen` reads: :data:`RAW_ARRAY_FIELDS` or
    :data:`ARRAY_FIELDS`. Members already in that format are handed
    over untouched (mmaps stay zero-copy). Every earlier layout is
    converted here, and nowhere else:

    * ``uppers_t`` / ``lowers_t`` — the whole ``(l, n)`` timestamp-major
      envelopes of raw frozen archives written before the head/tail
      layout — are transposed;
    * ``child_starts`` / ``child_counts`` / ``position_offsets`` — how
      pointer-tree archives (and the shards of sharded archives) held
      the same BFS order before they were written with
      :func:`~repro.core.frozen.flatten` — become the CSR offsets.
      ``child_starts`` are redundant there; ones that disagree with the
      starts the counts imply are refused.

    A missing member raises :class:`SerializationError` naming it.
    """

    def member(name: str) -> np.ndarray:
        if prefix + name not in data:
            raise SerializationError(f"archive has no {prefix + name!r} member")
        return data[prefix + name]

    if prefix + "uppers_head" in data:
        return {name: member(name) for name in RAW_ARRAY_FIELDS}
    if prefix + "uppers_t" in data:
        arrays = {"uppers": member("uppers_t").T, "lowers": member("lowers_t").T}
    else:
        arrays = {"uppers": member("uppers"), "lowers": member("lowers")}
    if prefix + "child_starts" in data:
        counts = member("child_counts")
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts = member("child_starts")
        inner = counts > 0
        if starts.shape != counts.shape or np.any(
            starts[inner] != offsets[:-1][inner] + 1
        ):
            raise SerializationError(
                f"archive member {prefix}child_starts disagrees with the "
                f"breadth-first starts its {prefix}child_counts imply"
            )
        arrays["children_offsets"] = offsets
        arrays["children"] = np.arange(1, int(offsets[-1]) + 1, dtype=np.int64)
        arrays["leaf_offsets"] = member("position_offsets")
    else:
        for name in ("children_offsets", "children", "leaf_offsets"):
            arrays[name] = member(name)
    arrays["kinds"] = member("kinds")
    arrays["positions"] = member("positions")
    return arrays


def _load_tsindex(meta: _Meta, data: _Members) -> TSIndex | FrozenTSIndex:
    source = _source_from(meta, data)
    params = TSIndexParams(**meta["params"])
    build_stats = _build_stats_from(meta)
    arrays = _upgrade(data)
    if meta.get("frozen"):
        # Frozen archives hold the flat arrays natively; loading is
        # pure array reads — no node objects, no re-insertion.
        return FrozenTSIndex.from_arrays(source, params, build_stats, arrays)
    check_structure(arrays, source.count)
    return TSIndex._from_prebuilt_root(
        source, unflatten(arrays), params, build_stats
    )


def _dump_frozen(index: FrozenTSIndex) -> dict[str, Any]:
    """Frozen indexes serialize their flat arrays verbatim, envelopes
    in their resident layout, so neither save nor load ever re-lays
    them out."""
    payload: dict[str, Any] = {
        "meta": _meta_for(
            index,
            "tsindex",
            {"params": _tsindex_params_meta(index.params), "frozen": True},
        ),
        "series": index.source.series.values,
    }
    source = index.source
    if source._means is not None:
        payload["win_means"] = source._means
        payload["win_stds"] = source._stds
    payload.update(index.raw_arrays())
    return payload


# ----------------------------------------------------------------------
# KV-Index: bins flattened to (bin, start, stop) triples
# ----------------------------------------------------------------------
def _dump_kvindex(index: KVIndex) -> dict[str, Any]:
    triples = []
    for bin_id in range(index.num_bins):
        for start, stop in index.bin_intervals(bin_id):
            triples.append((bin_id, start, stop))
    return {
        "meta": _meta_for(index, "kvindex", {"num_bins": index.params.num_bins}),
        "series": index.source.series.values,
        "edges": index.edges,
        "triples": np.asarray(triples, dtype=np.int64).reshape(-1, 3),
    }


def _load_kvindex(meta: _Meta, data: _Members) -> KVIndex:
    source = _source_from(meta, data)
    index = KVIndex(source, KVIndexParams(num_bins=int(meta["num_bins"])))
    index._edges = np.asarray(data["edges"], dtype=float)
    bin_count = max(1, index._edges.size - 1)
    index._bins = [[] for _ in range(bin_count)]
    for bin_id, start, stop in data["triples"]:
        index._bins[int(bin_id)].append((int(start), int(stop)))
    index._build_stats = _build_stats_from(meta)
    return index


# ----------------------------------------------------------------------
# iSAX: nodes flattened breadth-first
# ----------------------------------------------------------------------
def _dump_isax(index: ISAXIndex) -> dict[str, Any]:
    words, bits, kinds = [], [], []
    split_segments, child_zero, child_one = [], [], []
    root_keys: list[int] = []
    position_offsets, position_data = [], []

    order: list[_ISAXNode] = []
    queue: list[_ISAXNode] = []
    for key, node in sorted(index._root_children.items()):
        root_keys.append(len(order))
        queue.append(node)
        order.append(node)
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        if not node.is_leaf:
            for bit in (0, 1):
                child = node.children[bit]
                order.append(child)
                queue.append(child)

    ids = {id(node): i for i, node in enumerate(order)}
    for node in order:
        words.append(node.word)
        bits.append(node.bits)
        kinds.append(1 if node.is_leaf else 0)
        position_offsets.append(len(position_data))
        if node.is_leaf:
            split_segments.append(-1)
            child_zero.append(-1)
            child_one.append(-1)
            position_data.extend(node.positions)
        else:
            split_segments.append(node.split_segment)
            child_zero.append(ids[id(node.children[0])])
            child_one.append(ids[id(node.children[1])])

    params = index.params
    alphabet = index.alphabet
    return {
        "meta": _meta_for(
            index,
            "isax",
            {
                "params": {
                    "segments": params.segments,
                    "leaf_capacity": params.leaf_capacity,
                    "base_bits": params.base_bits,
                    "max_bits": params.max_bits,
                }
            },
        ),
        "series": index.source.series.values,
        "alphabet": alphabet.breakpoints(alphabet.max_cardinality),
        "words": np.asarray(words, dtype=np.int64),
        "bits": np.asarray(bits, dtype=np.int64),
        "kinds": np.asarray(kinds, dtype=np.int8),
        "split_segments": np.asarray(split_segments, dtype=np.int64),
        "child_zero": np.asarray(child_zero, dtype=np.int64),
        "child_one": np.asarray(child_one, dtype=np.int64),
        "root_keys": np.asarray(root_keys, dtype=np.int64),
        "position_offsets": np.asarray(
            position_offsets + [len(position_data)], dtype=np.int64
        ),
        "positions": np.asarray(position_data, dtype=POSITION_DTYPE),
    }


def _load_isax(meta: _Meta, data: _Members) -> ISAXIndex:
    source = _source_from(meta, data)
    params = ISAXParams(**meta["params"])
    alphabet = SAXAlphabet(data["alphabet"], 1 << params.max_bits)
    index = ISAXIndex(source, params, alphabet)
    from ..indices.paa import paa_matrix

    index._paa = paa_matrix(source, params.segments)
    index._sax = alphabet.symbols(index._paa)

    kinds = data["kinds"]
    words = data["words"]
    bits = data["bits"]
    offsets = data["position_offsets"]
    positions = data["positions"]

    nodes: list[_ISAXNode] = []
    for i in range(kinds.size):
        node = _ISAXNode(words[i].copy(), bits[i].copy(), alphabet)
        nodes.append(node)
    for i in range(kinds.size):
        if kinds[i] == 1:
            start = int(offsets[i])
            stop = int(offsets[i + 1]) if i + 1 < offsets.size else positions.size
            nodes[i].positions = [int(p) for p in positions[start:stop]]
        else:
            nodes[i].positions = None
            nodes[i].split_segment = int(data["split_segments"][i])
            nodes[i].children = {
                0: nodes[int(data["child_zero"][i])],
                1: nodes[int(data["child_one"][i])],
            }
    index._root_children = {}
    for root_id in data["root_keys"]:
        node = nodes[int(root_id)]
        key = tuple(int(symbol) for symbol in node.word)
        index._root_children[key] = node
    index._build_stats = _build_stats_from(meta)
    return index


# ----------------------------------------------------------------------
# Sharded TS-Index: per-shard trees flattened under prefixed keys
# ----------------------------------------------------------------------
def _dump_sharded(engine: ShardedTSIndex) -> dict[str, Any]:
    """One archive holding the full series plus every shard tree.

    Shard window sources are zero-copy views of the monolithic source,
    so only the monolithic series is stored; shard ``i``'s arrays are
    prefixed ``s{i}_`` and its span recorded in the metadata.
    """
    shard_meta = []
    payload: dict[str, Any] = {"series": engine.source.series.values}
    for i, ((start, stop), tree) in enumerate(zip(engine.spans, engine.shards)):
        for key, value in tree.raw_arrays().items():
            payload[f"s{i}_{key}"] = value
        shard_meta.append(
            {
                "start": start,
                "stop": stop,
                "frozen": True,  # older readers choose the layout by it
                "build_stats": dataclasses.asdict(tree.build_stats),
            }
        )
    payload["meta"] = _meta_for(
        engine,
        "sharded_tsindex",
        {"params": _tsindex_params_meta(engine.params), "shards": shard_meta},
    )
    return payload


def _load_sharded(meta: _Meta, data: _Members) -> ShardedTSIndex:
    from ..engine.sharding import ShardedTSIndex  # lazy: engine imports us

    source = _source_from(meta, data)
    params = TSIndexParams(**meta["params"])
    starts: list[int] = []
    trees: list[FrozenTSIndex] = []
    for i, shard in enumerate(meta["shards"]):
        start, stop = int(shard["start"]), int(shard["stop"])
        trees.append(
            FrozenTSIndex.from_arrays(
                source.shard(start, stop),
                params,
                _build_stats_from(shard),
                _upgrade(data, prefix=f"s{i}_"),
            )
        )
        starts.append(start)
    return ShardedTSIndex._from_prebuilt(source, starts, trees, params)


# ----------------------------------------------------------------------
# Sweepline: only the series and regime are needed
# ----------------------------------------------------------------------
def _dump_sweepline(index: SweeplineSearch) -> dict[str, Any]:
    return {
        "meta": _meta_for(index, "sweepline"),
        "series": index.source.series.values,
    }


def _load_sweepline(meta: _Meta, data: _Members) -> SweeplineSearch:
    return SweeplineSearch.from_source(_source_from(meta, data))
