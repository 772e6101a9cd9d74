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
by round-trip tests. Frozen indexes (standalone or as shards) round-trip
their flat arrays *natively*: loading is pure array reads — no node
objects are rebuilt, no windows re-inserted — and envelopes are written
as the outward-rounded float32 the frozen plane holds (each array file
records its own dtype). Older archives keep loading because the loader
hands over whichever envelope members it finds and
:class:`~repro.core.frozen.FrozenTSIndex` converts them on the way in,
once, into private memory: whole timestamp-major ``uppers_t`` /
``lowers_t`` (older raw archives) and node-major ``uppers`` / ``lowers``
(``.npz``) are re-laid-out and float64 envelopes rounded outward, which
yields exactly the arrays freezing the same tree yields today.
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

import numpy as np

from .._util import POSITION_DTYPE
from ..core.frozen import ARRAY_FIELDS, RAW_ARRAY_FIELDS, FrozenTSIndex
from ..core.mbts import MBTS
from ..core.normalization import Normalization
from ..core.stats import BuildStats
from ..core.tsindex import TSIndex, TSIndexParams, _Node
from ..core.windows import WindowSource, assemble_source
from ..exceptions import InvalidParameterError, SerializationError
from ..indices.isax import ISAXIndex, ISAXParams, _ISAXNode
from ..indices.kvindex import KVIndex, KVIndexParams
from ..indices.sax import SAXAlphabet
from ..indices.sweepline import SweeplineSearch
from ..obs.metrics import HandleCache

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


def _payload_for(index) -> dict:
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


def save_index(index, path, *, format: str = "raw", fsync: bool = True) -> None:
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

    def __contains__(self, key) -> bool:
        return os.path.exists(self._file(key))

    def __getitem__(self, key) -> np.ndarray:
        try:
            return np.load(
                self._file(key), mmap_mode=self._mmap_mode, allow_pickle=False
            )
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"cannot read array {key!r} of raw archive "
                f"{self._path!r}: {exc}"
            ) from exc


def _write_raw(path: str, payload: dict, *, fsync: bool = True) -> None:
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


def load_index(path, *, mmap: bool = True):
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
                meta = json.load(handle)
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
            meta = json.loads(str(data["meta"][()]))
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
def _meta_for(index, method: str, extra: dict | None = None) -> str:
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


def _source_from(meta: dict, data: dict) -> WindowSource:
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


def _build_stats_from(meta: dict) -> BuildStats:
    return BuildStats(**meta.get("build_stats", {}))


# ----------------------------------------------------------------------
# TS-Index: pre-order flattening with explicit child ranges
# ----------------------------------------------------------------------
def _tsindex_params_meta(params: TSIndexParams) -> dict:
    return {
        "min_children": params.min_children,
        "max_children": params.max_children,
        "split_metric": params.split_metric,
    }


def _flatten_tree(root: _Node) -> dict:
    """Flatten one TS-Index tree into plain arrays (no meta, no series).

    Breadth-first so children of one node are contiguous; shared by the
    monolithic and the sharded dump paths.
    """
    uppers, lowers = [], []
    kinds, child_starts, child_counts = [], [], []
    position_offsets, position_data = [], []
    order: list[_Node] = []

    def visit(node: _Node) -> int:
        my_id = len(order)
        order.append(node)
        uppers.append(node.mbts.upper)
        lowers.append(node.mbts.lower)
        kinds.append(1 if node.is_leaf else 0)
        child_starts.append(0)
        child_counts.append(0)
        position_offsets.append(len(position_data))
        if node.is_leaf:
            position_data.extend(node.positions)
        return my_id

    queue = [root]
    visit(root)
    head = 0
    while head < len(queue):
        node = queue[head]
        node_id = head
        head += 1
        if not node.is_leaf:
            child_starts[node_id] = len(order)
            child_counts[node_id] = len(node.children)
            for child in node.children:
                visit(child)
                queue.append(child)

    return {
        "uppers": np.asarray(uppers),
        "lowers": np.asarray(lowers),
        "kinds": np.asarray(kinds, dtype=np.int8),
        "child_starts": np.asarray(child_starts, dtype=np.int64),
        "child_counts": np.asarray(child_counts, dtype=np.int64),
        "position_offsets": np.asarray(
            position_offsets + [len(position_data)], dtype=np.int64
        ),
        "positions": np.asarray(position_data, dtype=POSITION_DTYPE),
    }


def _tree_from_arrays(data: dict, *, prefix: str = "") -> _Node | None:
    """Rebuild a TS-Index node tree from :func:`_flatten_tree` arrays."""
    kinds = data[f"{prefix}kinds"]
    uppers = data[f"{prefix}uppers"]
    lowers = data[f"{prefix}lowers"]
    child_starts = data[f"{prefix}child_starts"]
    child_counts = data[f"{prefix}child_counts"]
    offsets = data[f"{prefix}position_offsets"]
    positions = data[f"{prefix}positions"]

    nodes: list[_Node] = []
    for i in range(kinds.size):
        mbts = MBTS(uppers[i], lowers[i])
        if kinds[i] == 1:
            nodes.append(_Node(mbts, positions=[]))
        else:
            nodes.append(_Node(mbts, children=[]))
    for i in range(kinds.size):
        if kinds[i] == 1:
            start = int(offsets[i])
            count_here = _leaf_span(i, kinds, offsets, positions.size)
            nodes[i].positions = [int(p) for p in positions[start : start + count_here]]
        else:
            first = int(child_starts[i])
            nodes[i].children = [
                nodes[j] for j in range(first, first + int(child_counts[i]))
            ]
    return nodes[0] if nodes else None


def _dump_tsindex(index: TSIndex) -> dict:
    if index._root is None:
        raise SerializationError("cannot serialize an empty TS-Index")
    payload = {
        "meta": _meta_for(
            index, "tsindex", {"params": _tsindex_params_meta(index.params)}
        ),
        "series": index.source.series.values,
    }
    payload.update(_flatten_tree(index._root))
    return payload


def _frozen_members(data: dict, prefix: str = "") -> dict:
    """The flat arrays of one frozen tree, under the names the archive
    holds them by: the resident layout (raw archives — those mmaps are
    adopted as they are, zero-copy), the ``(n, l)`` matrices (``.npz``)
    or the ``(l, n)`` ``uppers_t`` / ``lowers_t`` of raw archives
    written before the head/tail layout. Which it is, and what to do
    about it, is :class:`FrozenTSIndex`'s business."""
    fields = dict.fromkeys(
        RAW_ARRAY_FIELDS + ARRAY_FIELDS + ("uppers_t", "lowers_t")
    )
    return {
        field: data[prefix + field]
        for field in fields
        if prefix + field in data
    }


def _load_tsindex(meta: dict, data: dict) -> TSIndex | FrozenTSIndex:
    source = _source_from(meta, data)
    params = TSIndexParams(**meta["params"])
    if meta.get("frozen"):
        # Frozen archives hold the flat arrays natively; loading is
        # pure array reads — no node objects, no re-insertion.
        return FrozenTSIndex.from_arrays(
            source, params, _build_stats_from(meta), _frozen_members(data)
        )
    root = _tree_from_arrays(data)
    index = TSIndex._from_prebuilt_root(
        source, root, params, _build_stats_from(meta)
    )
    return index


def _dump_frozen(index: FrozenTSIndex) -> dict:
    """Frozen indexes serialize their flat arrays verbatim, envelopes
    in their resident layout, so neither save nor load ever re-lays
    them out."""
    payload = {
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


def _leaf_span(i: int, kinds, offsets, total: int) -> int:
    """Positions stored by leaf ``i``: up to the next node's offset."""
    start = int(offsets[i])
    stop = int(offsets[i + 1]) if i + 1 < offsets.size else total
    return stop - start


# ----------------------------------------------------------------------
# KV-Index: bins flattened to (bin, start, stop) triples
# ----------------------------------------------------------------------
def _dump_kvindex(index: KVIndex) -> dict:
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


def _load_kvindex(meta: dict, data: dict) -> KVIndex:
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
def _dump_isax(index: ISAXIndex) -> dict:
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


def _load_isax(meta: dict, data: dict) -> ISAXIndex:
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
def _dump_sharded(engine) -> dict:
    """One archive holding the full series plus every shard tree.

    Shard window sources are zero-copy views of the monolithic source,
    so only the monolithic series is stored; shard ``i``'s arrays are
    prefixed ``s{i}_`` and its span recorded in the metadata.
    """
    shard_meta = []
    payload: dict = {"series": engine.source.series.values}
    for i, ((start, stop), tree) in enumerate(zip(engine.spans, engine.shards)):
        for key, value in tree.raw_arrays().items():
            payload[f"s{i}_{key}"] = value
        shard_meta.append(
            {
                "start": start,
                "stop": stop,
                "frozen": True,
                "build_stats": dataclasses.asdict(tree.build_stats),
            }
        )
    payload["meta"] = _meta_for(
        engine,
        "sharded_tsindex",
        {"params": _tsindex_params_meta(engine.params), "shards": shard_meta},
    )
    return payload


def _load_sharded(meta: dict, data: dict):
    from ..engine.sharding import ShardedTSIndex  # lazy: engine imports us

    source = _source_from(meta, data)
    params = TSIndexParams(**meta["params"])
    starts: list[int] = []
    trees: list[FrozenTSIndex] = []
    for i, shard in enumerate(meta["shards"]):
        start, stop = int(shard["start"]), int(shard["stop"])
        shard_source = source.shard(start, stop)
        build_stats = BuildStats(**shard.get("build_stats", {}))
        if shard.get("frozen"):
            trees.append(
                FrozenTSIndex.from_arrays(
                    shard_source,
                    params,
                    build_stats,
                    _frozen_members(data, prefix=f"s{i}_"),
                )
            )
        else:
            # An archive written when shards could stay pointer trees:
            # rebuild the tree, then freeze it as a build does today.
            root = _tree_from_arrays(data, prefix=f"s{i}_")
            trees.append(
                TSIndex._from_prebuilt_root(
                    shard_source, root, params, build_stats
                ).freeze()
            )
        starts.append(start)
    return ShardedTSIndex._from_prebuilt(source, starts, trees, params)


# ----------------------------------------------------------------------
# Sweepline: only the series and regime are needed
# ----------------------------------------------------------------------
def _dump_sweepline(index: SweeplineSearch) -> dict:
    return {
        "meta": _meta_for(index, "sweepline"),
        "series": index.source.series.values,
    }


def _load_sweepline(meta: dict, data: dict) -> SweeplineSearch:
    return SweeplineSearch.from_source(_source_from(meta, data))
