"""One model of the durable live plane, executed.

A Hypothesis state machine drives a small durable ``LiveTwinIndex``
through append / seal / compact / reopen / query, each step optionally
under one armed failpoint, and holds it to the plane's whole contract:

* every acked reading survives, and ``values`` is a bitwise prefix of
  acked + the batch in flight when a crash landed;
* a survivable fault surfaces as a typed ``StorageError`` and the next
  append succeeds;
* all six query modes equal a from-scratch ``TSIndex`` over ``values``,
  on positions and distances — filter-and-refine answers do not depend
  on how the windows are partitioned, so that is a complete invariant.

Compaction runs where production runs it, in the plane's ``Compactor``
(failpoint, retries, backoff, crash accounting), only on the calling
thread (:class:`conftest.CallingThreadCompactor`), so every step is
deterministic; a compactor a fault killed counts as a kill of the step.

Budgets come from the Hypothesis profile (``tests/conftest.py``): ``ci``
by default, ``--hypothesis-profile soak`` for the long run.
"""

import contextlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.live.index as live_index
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.exceptions import SimulatedCrashError, StorageError
from repro.faults import failpoints
from repro.live import LiveTwinIndex

from conftest import CallingThreadCompactor

LENGTH = 6
PARAMS = TSIndexParams(min_children=2, max_children=4)
SEAL_THRESHOLD = 8
MAX_SEGMENTS = 2

#: What an armed site does when it fires.
ACTIONS = (
    {"crash": True},
    {"error": "io"},
    {"error": "enospc"},
)
#: Torn writes, at the two sites that interpret one: a partial journal
#: record then a kill, a partial record then a survivable disk-full, and
#: a partial manifest tmp then a kill.
TORN = {
    "wal.append": (
        {"payload": {"torn_after_bytes": 7}},
        {"payload": {"torn_after_bytes": 9, "error": "enospc"}},
    ),
    "manifest.commit": ({"payload": {"truncate_tmp_to": 5}},),
}
#: The fault table: every live-plane failpoint site, the rules whose
#: code path reaches it (an append may seal, every seal over
#: ``MAX_SEGMENTS`` runs the compactor, and so does every compact), and
#: how many times one such step commonly hits it — a fault is armed for
#: the 1st..nth hit. An append that seals twice writes and commits
#: seal, merge, seal, merge: four ``segment.write`` and four
#: ``manifest.commit`` hits. A search hits ``segment.search`` once per
#: part: the sealed segments' one forest, then the delta's scan. Rarer
#: reaches are left out rather than diluting the draw: a three-seal
#: backlog (5-6 hits), a recovery whose journal replays a full threshold
#: and seals.
SITES = {
    "wal.append": (("append",), 1),
    "wal.fsync": (("append",), 1),
    "live.seal": (("append", "seal"), 2),
    "segment.write": (("append", "seal", "compact"), 4),
    "manifest.commit": (("append", "seal", "compact", "reopen"), 4),
    "wal.rewrite": (("append", "seal", "reopen"), 2),
    "compaction.merge": (("append", "seal", "compact"), 2),
    "segment.read": (("reopen",), 2),
    "segment.search": (("query",), 2),
}
FAULTS = tuple(
    (site, config, on_hit)
    for site, (_, hits) in SITES.items()
    for config in (*ACTIONS, *TORN.get(site, ()))
    for on_hit in range(1, hits + 1)
)


def faults(rule_name):
    """No fault, or one of the table's that reaches ``rule_name``."""
    return st.none() | st.sampled_from(
        [fault for fault in FAULTS if rule_name in SITES[fault[0]][0]]
    )


#: Few distinct values: twins, duplicate windows and k-NN ties are common.
batches = st.lists(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5]),
    min_size=1,
    max_size=14,
).map(np.array)


def same(got, want):
    assert np.array_equal(got.positions, want.positions), (got.positions, want.positions)
    assert np.array_equal(got.distances, want.distances), (got.distances, want.distances)


class LivePlaneMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        failpoints.reset()
        # Set here, not by a fixture, so a pasted shrunk sequence runs
        # the same compactor the test did.
        self.seam = pytest.MonkeyPatch()
        self.seam.setattr(live_index, "Compactor", CallingThreadCompactor)
        self.directory = tempfile.mkdtemp(prefix="repro-live-machine-")
        self.live = None
        self.acked = np.empty(0)
        self.oracle = None

    def teardown(self):
        failpoints.reset()
        if self.live is not None:
            self.live.close()
        self.seam.undo()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers -------------------------------------------------------
    def adopt(self, live):
        # Retries of a failed merge back off; keep them short.
        live._compactor._backoff = 0.001
        self.live = live

    def ack(self, values):
        self.acked = np.array(values)
        self.oracle = None

    def under(self, fault, operation, in_flight=()):
        """Run ``operation`` with ``fault`` armed and say how it ended:
        ``"done"``; ``"refused"`` — a typed ``StorageError``, the one
        survivable way not to complete; or ``"killed"`` — a
        ``SimulatedCrashError``, raised or recorded by the compactor it
        killed, after which the plane is recovered and must hold the
        durability contract for ``in_flight``. Anything else fails the
        run."""
        armed = contextlib.nullcontext()
        if fault is not None:
            site, config, on_hit = fault
            armed = failpoints.armed(site, on_hit=on_hit, **config)
        try:
            with armed:
                operation()
            if self.live._compactor.crashed:
                raise SimulatedCrashError("the compactor was killed")
            return "done"
        except StorageError:
            return "refused"
        except SimulatedCrashError:
            self.live.abandon()
            self.adopt(LiveTwinIndex.recover(self.directory))
            survived = np.asarray(self.live.values)
            stream = np.concatenate([self.acked, in_flight])
            assert survived.size >= self.acked.size, "acked readings lost"
            assert np.array_equal(survived, stream[: survived.size])
            self.ack(survived)
            return "killed"

    def append_must_succeed(self, batch):
        self.live.append(batch)
        self.ack(np.concatenate([self.acked, batch]))

    # -- rules ---------------------------------------------------------
    @initialize(
        regime=st.sampled_from(["none", "per_window"]),
        first=st.none() | batches,
    )
    def create(self, regime, first):
        self.adopt(
            LiveTwinIndex.create(
                self.directory,
                first,
                length=LENGTH,
                normalization=regime,
                params=PARAMS,
                seal_threshold=SEAL_THRESHOLD,
                max_segments=MAX_SEGMENTS,
            )
        )
        self.ack(self.live.values)

    @rule(batch=batches, fault=faults("append"))
    def append(self, batch, fault):
        ended = self.under(fault, lambda: self.live.append(batch), in_flight=batch)
        if ended == "done":
            self.ack(np.concatenate([self.acked, batch]))
        elif ended == "refused":
            self.append_must_succeed(batch)

    @precondition(lambda self: self.live.delta_windows > 0)
    @rule(fault=faults("seal"))
    def seal(self, fault):
        if self.under(fault, lambda: self.live.seal()) == "refused":
            self.append_must_succeed(np.array([1.0]))

    @rule(fault=faults("compact"))
    def compact(self, fault):
        # A merge fault is retried or recorded by the compactor, never
        # raised to the caller.
        assert self.under(fault, self.live.compact) != "refused"

    @rule(how=st.sampled_from(["close", "abandon"]), fault=faults("reopen"))
    def reopen(self, how, fault):
        getattr(self.live, how)()

        def recover():
            self.adopt(LiveTwinIndex.recover(self.directory))

        # A recovery that dies must leave a recoverable directory.
        if self.under(fault, recover) == "refused":
            recover()

    @rule(
        position=st.integers(0, 10_000),
        epsilon=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        k=st.integers(1, 6),
        shorter=st.integers(1, LENGTH - 1),
        fault=faults("query"),
    )
    def query(self, position, epsilon, k, shorter, fault):
        windows = self.acked.size - LENGTH + 1
        if windows <= 0:
            probe = np.zeros(LENGTH)
            assert len(self.live.search(probe, epsilon)) == 0
            assert self.live.count(probe, epsilon) == 0
            assert not self.live.exists(probe, epsilon)
            assert len(self.live.knn(probe, k)) == 0
            return
        start = position % windows
        query = self.acked[start : start + LENGTH]
        if fault is not None:
            # A part (a segment or the delta's scan) that fails
            # mid-query surfaces its own error (the fan-out contract);
            # the plane must answer the same query exactly right after.
            with contextlib.suppress(OSError):
                self.under(fault, lambda: self.live.search(query, epsilon))
        live = self.live
        if self.oracle is None:
            self.oracle = TSIndex.build(
                self.acked, length=LENGTH, normalization=live.normalization, params=PARAMS
            )
        oracle = self.oracle
        want = oracle.search(query, epsilon)
        same(live.search(query, epsilon), want)
        assert live.count(query, epsilon) == len(want)
        assert live.exists(query, epsilon) == (len(want) > 0)
        same(live.knn(query, min(k, windows)), oracle.knn(query, min(k, windows)))
        other = self.acked[(start * 7) % windows :][:LENGTH]
        batch = live.search_batch([query, other], epsilon)
        same(batch[0], want)
        same(batch[1], oracle.search(other, epsilon))
        if live.normalization.value == "none":  # per-window rejects m < l
            same(live.search(query[:shorter], epsilon), oracle.search(query[:shorter], epsilon))

    @invariant()
    def values_are_the_acked_stream(self):
        if self.live is not None:
            assert np.array_equal(self.live.values, self.acked)


TestLivePlane = LivePlaneMachine.TestCase


def test_fault_table_names_every_live_site():
    """A live-plane failpoint cannot land without the model arming it:
    the table covers the registry minus the two fan-out-only sites (the
    ``failpoint-sites`` invariant in ``tests/test_invariants.py`` holds
    call sites to the registry)."""
    assert set(SITES) == failpoints.SITES - {"shard.search", "fanout.task"}
    assert {site for site, _, _ in FAULTS} == set(SITES)
    for reach, _ in SITES.values():
        assert all(callable(getattr(LivePlaneMachine, name, None)) for name in reach)
