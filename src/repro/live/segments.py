"""Sealed segments of the live ingestion plane.

A :class:`Segment` is an immutable, self-contained slice of the live
series: a :class:`~repro.core.frozen.FrozenTSIndex` over the global
window span ``[start, stop)`` whose window source owns a copy of the
value chunk ``[start, stop + l - 1)`` (consecutive segments therefore
overlap by ``l - 1`` values, so no window is lost at a boundary — the
same invariant :class:`repro.engine.ShardedTSIndex` maintains). Under
the per-window regime the source also carries copies of the *monolithic*
rolling statistics for its span; because those statistics are
prefix-stable under appends (see
:func:`~repro.core.normalization.rolling_std`), segment windows stay
bitwise identical to the corresponding windows of a from-scratch index
over the whole grown series.

Every segment is bulk loaded (:meth:`Segment.build`): a seal builds one
over the delta's windows; :func:`merge_segments`, the compaction
primitive, over the concatenated chunk of two adjacent segments (minus
the duplicated ``l - 1`` overlap values). Tree shape never shows in an
answer: twins are exact post-verification, window values carry bitwise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.bulkload import bulk_load_source
from ..core.frozen import FrozenTSIndex
from ..core.normalization import Normalization
from ..core.tsindex import TSIndexParams
from ..core.windows import WindowSource, assemble_source
from ..exceptions import InvalidParameterError


@dataclasses.dataclass
class Segment:
    """One sealed, immutable span of the live index.

    ``index`` answers queries in segment-local positions (0-based within
    the span); callers re-offset by ``start``. ``file`` is the archive
    name under the live directory for durable planes, ``None`` for
    in-memory ones.
    """

    start: int
    index: FrozenTSIndex
    file: str | None = None

    @property
    def stop(self) -> int:
        """Global position one past the last window of this segment."""
        return self.start + self.index.size

    @property
    def size(self) -> int:
        """Number of windows in this segment."""
        return self.index.size

    @classmethod
    def build(cls, source: WindowSource, start: int, params: TSIndexParams) -> "Segment":
        """Bulk load every window of ``source`` — the
        plane's windows from global position ``start`` on, in memory of
        its own (a ``detach``-ed span or a fresh ``assemble_source``), so
        a segment never pins the historical append buffer alive."""
        return cls(start=start, index=bulk_load_source(source, params=params))

    def rebased(self, source: WindowSource, params: TSIndexParams) -> "Segment":
        """This segment — as loaded from its archive — over its own span
        of the recovered monolithic ``source``: prefix-stable rolling
        statistics make the re-derived chunk source bitwise equal to
        the pre-crash one, ``from_arrays`` re-validates the flat
        structure, and the loaded envelopes (mmap views, for raw
        archives) are adopted without a re-layout copy."""
        return Segment(
            start=self.start,
            index=FrozenTSIndex.from_arrays(
                source.detach(self.start, self.stop),
                params,
                dataclasses.replace(self.index.build_stats),
                self.index.raw_arrays(),
            ),
            file=self.file,
        )

    def stats_row(self) -> dict:
        """One diagnostics row (for ``live stats`` and the registry);
        ``build_seconds`` is the bulk load, of a seal or a compaction."""
        build = self.index.build_stats
        return {
            "span": f"[{self.start}, {self.stop})",
            "windows": self.size,
            "height": self.index.height,
            "nodes": self.index.node_count,
            "file": self.file or "<memory>",
            "build_seconds": round(build.seconds, 4),
        }

    def __repr__(self) -> str:
        return f"Segment(span=[{self.start}, {self.stop}), file={self.file!r})"


def merge_segments(
    first: Segment, second: Segment, params: TSIndexParams
) -> Segment:
    """Compact two *adjacent* segments into one.

    Self-contained: reads only the two segments' own sources (never the
    live plane's mutable state), so it is safe to run on a background
    thread while appends proceed.
    """
    if first.stop != second.start:
        raise InvalidParameterError(
            f"can only merge adjacent segments, got [{first.start}, "
            f"{first.stop}) and [{second.start}, {second.stop})"
        )
    src_a: WindowSource = first.index.source
    src_b: WindowSource = second.index.source
    length = src_a.length
    # src_a covers values [start_a, stop_a + l - 1); src_b covers
    # [stop_a, stop_b + l - 1). Dropping src_b's first l - 1 values
    # (the shared overlap) yields the contiguous chunk.
    values = np.concatenate([src_a.values, src_b.values[length - 1:]])
    if src_a.normalization is Normalization.PER_WINDOW:
        means = np.concatenate([src_a._means, src_b._means])
        stds = np.concatenate([src_a._stds, src_b._stds])
    else:
        means = stds = None
    merged_source = assemble_source(
        values,
        length,
        src_a.normalization,
        means=means,
        stds=stds,
        name=f"live[{first.start}:{second.stop + length - 1}]",
    )
    return Segment.build(merged_source, first.start, params)
