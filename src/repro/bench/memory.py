"""Index memory footprint estimation (Figure 8a).

The paper reports JVM memory per index. Here we measure the *structural*
size of each index: NumPy buffer bytes plus estimated Python container
overhead for the parts that constitute the index proper (tree nodes,
MBTS envelopes, SAX words, bins and position lists). The raw series and
lazily-built acceleration caches are excluded so the comparison mirrors
the paper's "index size" semantics; pass ``include_caches=True`` to
count caches too.
"""

from __future__ import annotations


import numpy as np

from ..core.tsindex import TSIndex
from ..exceptions import InvalidParameterError
from ..indices.isax import ISAXIndex
from ..indices.kvindex import KVIndex
from ..indices.sweepline import SweeplineSearch

#: Approximate CPython per-object overheads (64-bit) used for the
#: container estimates; exactness is irrelevant — the comparison is
#: across indices measured identically.
_PYOBJECT = 56
_PER_LIST_SLOT = 8
_PER_INT = 28
_PER_TUPLE2 = 56


def _array_bytes(array) -> int:
    if array is None:
        return 0
    return int(np.asarray(array).nbytes)


def index_memory_bytes(index, *, include_caches: bool = False) -> int:
    """Structural memory footprint of any supported index, in bytes."""
    if isinstance(index, TSIndex):
        return _tsindex_bytes(index, include_caches=include_caches)
    if isinstance(index, KVIndex):
        return _kvindex_bytes(index)
    if isinstance(index, ISAXIndex):
        return _isax_bytes(index, include_caches=include_caches)
    if isinstance(index, SweeplineSearch):
        return 0  # nothing is materialized beyond the series itself
    raise InvalidParameterError(
        f"cannot measure object of type {type(index).__name__}"
    )


def _tsindex_bytes(index: TSIndex, *, include_caches: bool) -> int:
    total = 0
    for node, _depth in index.iter_nodes():
        total += _PYOBJECT
        total += _array_bytes(node.mbts.upper) + _array_bytes(node.mbts.lower)
        if node.is_leaf:
            total += _PYOBJECT + len(node.positions) * (_PER_LIST_SLOT + _PER_INT)
        else:
            total += _PYOBJECT + len(node.children) * _PER_LIST_SLOT
            if include_caches:
                total += _array_bytes(node._env_upper)
                total += _array_bytes(node._env_lower)
    if include_caches:
        total += _array_bytes(index._scratch)
        # The held `freeze()` snapshot (knn / exists / batch / prefix
        # queries run on it) is a cache of the tree, not index size.
        if index._frozen is not None:
            total += sum(map(_array_bytes, index._frozen.raw_arrays().values()))
    return total


def _kvindex_bytes(index: KVIndex) -> int:
    total = _array_bytes(index.edges)
    for bin_id in range(index.num_bins):
        intervals = index.bin_intervals(bin_id)
        total += _PYOBJECT + len(intervals) * (_PER_LIST_SLOT + _PER_TUPLE2 + 2 * _PER_INT)
    return total


def _isax_bytes(index: ISAXIndex, *, include_caches: bool) -> int:
    alphabet = index.alphabet
    total = _array_bytes(alphabet.breakpoints(alphabet.max_cardinality))
    for node in index.iter_nodes():
        total += _PYOBJECT
        total += _array_bytes(node.word) + _array_bytes(node.bits)
        total += _array_bytes(node.low) + _array_bytes(node.high)
        if node.is_leaf:
            total += _PYOBJECT + len(node.positions) * (_PER_LIST_SLOT + _PER_INT)
        else:
            total += _PYOBJECT + 2 * _PER_LIST_SLOT
    if include_caches:
        total += _array_bytes(index._paa) + _array_bytes(index._sax)
    return total


def memory_report(indices: dict) -> dict:
    """``{label: megabytes}`` for a dict of built indices."""
    return {
        label: index_memory_bytes(index) / (1024.0 * 1024.0)
        for label, index in indices.items()
    }
