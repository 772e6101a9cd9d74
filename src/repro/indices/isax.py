"""iSAX index adapted to twin subsequence search (Section 4.2).

Structure follows Shieh & Keogh's iSAX: the root fans out to one child
per base-cardinality SAX word; an overflowing leaf splits by promoting
one more bit of one segment's symbol, producing two children. Every node
therefore covers, per segment, a contiguous range of mean values — and
the paper's twin filter applies: if ``Q`` has a twin below a node, the
query's per-segment PAA mean must lie within ``ε`` of that node's range
in *every* segment (combining the two observations of Section 3.1).

Construction is insertion-based, as in the original (iSAX 2.0 bulk
loading is left to TS-Index's bulk loader, whose role it mirrors); the
initial PAA/SAX summarization of all windows is vectorized.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterator

import numpy as np
import numpy.typing as npt

from .._util import (
    POSITION_DTYPE,
    check_non_negative,
    check_positive_int,
)
from ..core.normalization import Normalization
from ..core.stats import BuildStats, QueryStats, SearchResult
from ..core.verification import verify
from ..core.windows import WindowSource
from ..exceptions import InvalidParameterError
from ..query.registration import register_plane
from ..query.spec import prepare_values
from ..query.varlength import is_prefix_query
from .base import SubsequenceIndex
from .paa import paa_matrix, paa_transform
from .sax import SAXAlphabet


@dataclasses.dataclass(frozen=True)
class ISAXParams:
    """Construction parameters for :class:`ISAXIndex`.

    Paper defaults (Section 6.1): ``segments = 10`` (Table 2 bold),
    ``leaf_capacity = 10,000``. ``base_bits`` is the root fan-out
    cardinality (``2^base_bits`` symbols per segment at the root);
    ``max_bits`` caps symbol refinement (cardinality ``2^max_bits``).
    """

    segments: int = 10
    leaf_capacity: int = 10_000
    base_bits: int = 1
    max_bits: int = 8

    def __post_init__(self) -> None:
        check_positive_int(self.segments, name="segments")
        check_positive_int(self.leaf_capacity, name="leaf_capacity")
        check_positive_int(self.base_bits, name="base_bits")
        check_positive_int(self.max_bits, name="max_bits")
        if self.base_bits > self.max_bits:
            raise InvalidParameterError(
                f"base_bits={self.base_bits} exceeds max_bits={self.max_bits}"
            )


class _ISAXNode:
    """One iSAX node: an iSAX word (symbol + bit-count per segment) and
    either stored positions (leaf) or a binary split (internal)."""

    __slots__ = ("word", "bits", "low", "high", "positions", "split_segment", "children")

    def __init__(self, word: np.ndarray, bits: np.ndarray, alphabet: SAXAlphabet):
        self.word = word
        self.bits = bits
        self.low, self.high = alphabet.word_ranges(word, bits)
        self.positions: list[int] | None = []
        self.split_segment: int | None = None
        self.children: dict[int, "_ISAXNode"] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.positions is not None


@register_plane(
    "isax",
    paper=True,
    summary="SAX-word tree with PAA pruning (Section 4.2)",
)
class ISAXIndex(SubsequenceIndex):
    """Tree over SAX words of all windows, adapted for twin search.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.indices import ISAXIndex
    >>> rng = np.random.default_rng(11)
    >>> series = np.cumsum(rng.normal(size=4000))
    >>> index = ISAXIndex.build(series, length=80)
    >>> query = index.source.window_block(42, 43)[0]
    >>> 42 in index.search(query, epsilon=0.25).positions
    True
    """

    method_name = "isax"

    def __init__(
        self,
        source: WindowSource,
        params: ISAXParams | None = None,
        alphabet: SAXAlphabet | None = None,
    ):
        params = params or ISAXParams()
        if params.segments > source.length:
            raise InvalidParameterError(
                f"segments={params.segments} exceeds window length "
                f"{source.length}"
            )
        self._source = source
        self._params = params
        self._alphabet = alphabet
        self._paa: np.ndarray | None = None
        self._sax: np.ndarray | None = None
        self._root_children: dict[tuple, _ISAXNode] = {}
        self._build_stats = BuildStats()
        # PAA means come from cumulative sums over the *whole series*:
        # the indexed matrix and the query transform round differently,
        # with cumsum error accumulating over all n prefix terms — so
        # identical windows at distant positions can disagree by up to
        # ~n·eps·peak, not just a few window-length ulps. The
        # per-segment filter is padded by this slack to avoid losing
        # exact twins at tiny epsilons (see tests/test_properties.py);
        # verification is exact, so the padding only admits candidates.
        peak = float(np.max(np.abs(source.values)))
        self._paa_slack = (
            8.0
            * np.finfo(float).eps
            * max(1e-300, peak)
            * max(source.length, len(source.values))
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        series: npt.ArrayLike,
        length: int,
        *,
        normalization: Normalization | str = Normalization.GLOBAL,
        params: ISAXParams | None = None,
        alphabet: SAXAlphabet | None = None,
    ) -> "ISAXIndex":
        """Build over all ``length``-windows of ``series``."""
        return cls.from_source(
            WindowSource(series, length, normalization),
            params=params,
            alphabet=alphabet,
        )

    @classmethod
    def from_source(
        cls,
        source: WindowSource,
        *,
        params: ISAXParams | None = None,
        alphabet: SAXAlphabet | None = None,
    ) -> "ISAXIndex":
        """Build from a prepared window source.

        Without an explicit alphabet, Gaussian breakpoints are used for
        z-normalized regimes and empirical (data-quantile) breakpoints
        for raw values, per the paper's breakpoint-adjustment note.
        """
        index = cls(source, params, alphabet)
        started = time.perf_counter()
        index._build()
        index._build_stats.seconds = time.perf_counter() - started
        index._build_stats.windows = source.count
        index._build_stats.height = index.height
        index._build_stats.nodes = index.node_count
        return index

    def _build(self) -> None:
        params = self._params
        self._paa = paa_matrix(self._source, params.segments)
        if self._alphabet is None:
            if self._source.normalization is Normalization.NONE:
                self._alphabet = SAXAlphabet.empirical(
                    self._paa.ravel(), 1 << params.max_bits
                )
            else:
                self._alphabet = SAXAlphabet.gaussian(1 << params.max_bits)
        elif self._alphabet.max_bits < params.max_bits:
            raise InvalidParameterError(
                "alphabet supports fewer bits than params.max_bits"
            )
        self._sax = self._alphabet.symbols(self._paa)

        shift = params.max_bits - params.base_bits
        base_words = self._sax >> shift
        for position in range(self._source.count):
            self._insert(position, base_words[position])

    def _insert(self, position: int, base_word: np.ndarray) -> None:
        params = self._params
        key = tuple(int(symbol) for symbol in base_word)
        node = self._root_children.get(key)
        if node is None:
            node = _ISAXNode(
                np.asarray(base_word, dtype=np.int64).copy(),
                np.full(params.segments, params.base_bits, dtype=np.int64),
                self._alphabet,
            )
            self._root_children[key] = node

        while not node.is_leaf:
            segment = node.split_segment
            bit = self._bit_of(position, segment, int(node.bits[segment]) + 1)
            node = node.children[bit]

        node.positions.append(position)
        if len(node.positions) > params.leaf_capacity:
            self._split_leaf(node)

    def _bit_of(self, position: int, segment: int, bits: int) -> int:
        """The ``bits``-th symbol bit of ``position``'s segment symbol."""
        symbol = int(self._sax[position, segment])
        return (symbol >> (self._params.max_bits - bits)) & 1

    def _split_leaf(self, node: _ISAXNode) -> None:
        """Promote one more bit of the most balanced splittable segment.

        If no segment separates the entries (all symbols identical at
        max cardinality), the leaf is allowed to overflow — the standard
        iSAX degenerate case.
        """
        params = self._params
        positions = np.asarray(node.positions, dtype=POSITION_DTYPE)
        best_segment = -1
        best_balance = None
        best_mask = None
        for segment in range(params.segments):
            bits = int(node.bits[segment])
            if bits >= params.max_bits:
                continue
            shift = params.max_bits - (bits + 1)
            mask = ((self._sax[positions, segment] >> shift) & 1).astype(bool)
            ones = int(mask.sum())
            if ones == 0 or ones == positions.size:
                continue
            balance = abs(positions.size - 2 * ones)
            if best_balance is None or balance < best_balance:
                best_segment = segment
                best_balance = balance
                best_mask = mask
        if best_segment < 0:
            return  # cannot split: indistinguishable entries stay put

        node.split_segment = best_segment
        children = {}
        for bit in (0, 1):
            word = node.word.copy()
            bits = node.bits.copy()
            word[best_segment] = word[best_segment] * 2 + bit
            bits[best_segment] += 1
            child = _ISAXNode(word, bits, self._alphabet)
            selected = positions[best_mask] if bit else positions[~best_mask]
            child.positions = [int(p) for p in selected]
            children[bit] = child
        node.children = children
        node.positions = None
        self._build_stats.splits += 1
        for child in children.values():
            if len(child.positions) > params.leaf_capacity:
                self._split_leaf(child)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The indexed window source."""
        return self._source

    @property
    def params(self) -> ISAXParams:
        """Construction parameters."""
        return self._params

    @property
    def alphabet(self) -> SAXAlphabet:
        """The breakpoint table in use."""
        return self._alphabet

    @property
    def build_stats(self) -> BuildStats:
        """Counters recorded while building."""
        return self._build_stats

    @property
    def height(self) -> int:
        """Longest root-to-leaf path (in nodes, excluding the root)."""
        best = 0
        stack = [(node, 1) for node in self._root_children.values()]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            if not node.is_leaf:
                stack.extend((child, depth + 1) for child in node.children.values())
        return best

    @property
    def node_count(self) -> int:
        """Total nodes under the root."""
        count = 0
        stack = list(self._root_children.values())
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children.values())
        return count

    def iter_nodes(self) -> Iterator[_ISAXNode]:
        """Yield every node (diagnostics, memory accounting, tests)."""
        stack = list(self._root_children.values())
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children.values())

    def __repr__(self) -> str:
        return (
            f"ISAXIndex(windows={self._source.count}, segments="
            f"{self._params.segments}, nodes={self.node_count})"
        )

    # ------------------------------------------------------------------
    # Query (Section 4.2 filter + shared verification)
    # ------------------------------------------------------------------
    def search(
        self, query: npt.ArrayLike, epsilon: float, *, verification: str = "bulk"
    ) -> SearchResult:
        """Traverse, pruning nodes whose per-segment mean range is more
        than ``ε`` from the query's PAA mean in any segment.

        ``verification`` picks the strategy (see
        :data:`~repro.core.verification.VERIFICATION_MODES`). Queries
        shorter than ``l`` dispatch to the pipeline's prefix scan (the
        SAX summaries are length-specific, so no filtering applies).
        """
        if is_prefix_query(query, self._source.length):
            return self.search_varlength(
                query, epsilon, verification=verification
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = prepare_values(self._source, query)
        query_paa = paa_transform(query, self._params.segments)
        stats = QueryStats()

        slack = epsilon + self._paa_slack
        collected: list[np.ndarray] = []
        stack = list(self._root_children.values())
        while stack:
            node = stack.pop()
            stats.nodes_visited += 1
            if np.any(query_paa < node.low - slack) or np.any(
                query_paa > node.high + slack
            ):
                stats.nodes_pruned += 1
                continue
            if node.is_leaf:
                stats.leaves_accessed += 1
                if node.positions:
                    collected.append(
                        np.asarray(node.positions, dtype=POSITION_DTYPE)
                    )
            else:
                stack.extend(node.children.values())

        candidates = (
            np.concatenate(collected)
            if collected
            else np.empty(0, dtype=POSITION_DTYPE)
        )
        return verify(
            self._source, query, candidates, epsilon,
            mode=verification, stats=stats,
        )

    def search_approximate(self, query: npt.ArrayLike, epsilon: float) -> SearchResult:
        """Twins from the query's *own* leaf only (approximate search).

        The classic iSAX approximate query: descend by the query's SAX
        word to a single leaf and verify just its contents. Answers are
        always a subset of :meth:`search`'s; a query that equals an
        indexed window is guaranteed to find at least itself (identical
        values quantize to the identical word). Cost is one root lookup
        plus one leaf verification.
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = prepare_values(self._source, query)
        query_paa = paa_transform(query, self._params.segments)
        symbols = self._alphabet.symbols(query_paa)
        stats = QueryStats()

        shift = self._params.max_bits - self._params.base_bits
        key = tuple(int(symbol) for symbol in (symbols >> shift))
        node = self._root_children.get(key)
        if node is None:
            return SearchResult.empty(stats)
        while not node.is_leaf:
            stats.nodes_visited += 1
            segment = node.split_segment
            bits = int(node.bits[segment]) + 1
            bit = (int(symbols[segment]) >> (self._params.max_bits - bits)) & 1
            node = node.children[bit]
        stats.nodes_visited += 1
        stats.leaves_accessed += 1
        positions = np.asarray(node.positions, dtype=POSITION_DTYPE)
        return verify(self._source, query, positions, epsilon, stats=stats)
