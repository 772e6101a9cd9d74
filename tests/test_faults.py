"""Failpoint framework semantics: triggers, actions, scoping, stats."""

import errno

import pytest

from repro.exceptions import InvalidParameterError, SimulatedCrashError
from repro.faults import failpoints

#: Any registered site: arm() refuses names nothing calls.
SITE = "wal.append"


@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.reset()
    yield
    failpoints.reset()


class TestDisarmed:
    def test_disarmed_site_returns_none(self):
        assert failpoints.failpoint("wal.append") is None

    def test_unrelated_armed_site_does_not_fire(self):
        failpoints.arm("wal.fsync", error="io")
        assert failpoints.failpoint("wal.append", path="x") is None

    def test_context_kwargs_accepted_when_disarmed(self):
        assert failpoints.failpoint("seg.read", file="a", size=3) is None


class TestActions:
    def test_error_instance_fires_fresh_copies(self):
        failpoints.arm(SITE, error=ValueError("boom"))
        with pytest.raises(ValueError, match="boom") as first:
            failpoints.failpoint(SITE)
        with pytest.raises(ValueError, match="boom") as second:
            failpoints.failpoint(SITE)
        assert first.value is not second.value

    def test_error_class_instantiated(self):
        failpoints.arm(SITE, error=RuntimeError)
        with pytest.raises(RuntimeError, match=SITE):
            failpoints.failpoint(SITE)

    def test_io_shorthand(self):
        failpoints.arm(SITE, error="io")
        with pytest.raises(OSError):
            failpoints.failpoint(SITE)

    def test_enospc_shorthand_carries_errno(self):
        failpoints.arm(SITE, error="enospc")
        with pytest.raises(OSError) as info:
            failpoints.failpoint(SITE)
        assert info.value.errno == errno.ENOSPC

    def test_crash_raises_simulated_crash(self):
        failpoints.arm(SITE, crash=True)
        with pytest.raises(SimulatedCrashError):
            failpoints.failpoint(SITE)

    def test_crash_is_not_an_exception_subclass(self):
        # A retry loop catching Exception must never swallow a kill.
        failpoints.arm(SITE, crash=True)
        with pytest.raises(SimulatedCrashError):
            try:
                failpoints.failpoint(SITE)
            except Exception:
                pytest.fail("crash was swallowed by `except Exception`")

    def test_payload_returned_to_site(self):
        payload = {"torn_after_bytes": 5}
        failpoints.arm(SITE, payload=payload)
        assert failpoints.failpoint(SITE) is payload

    def test_make_error_rejects_unknown_class(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            failpoints.make_error("oom")


class TestTriggers:
    def test_on_hit_fires_only_nth(self):
        failpoints.arm(SITE, error="io", on_hit=3)
        assert failpoints.failpoint(SITE) is None
        assert failpoints.failpoint(SITE) is None
        with pytest.raises(OSError):
            failpoints.failpoint(SITE)
        assert failpoints.failpoint(SITE) is None  # only the 3rd

    def test_times_caps_firings(self):
        failpoints.arm(SITE, error="io", times=2)
        for _ in range(2):
            with pytest.raises(OSError):
                failpoints.failpoint(SITE)
        assert failpoints.failpoint(SITE) is None

    def test_probability_stream_is_deterministic(self):
        def fire_pattern():
            failpoints.arm(SITE, error="io", probability=0.5, seed=42)
            pattern = []
            for _ in range(32):
                try:
                    failpoints.failpoint(SITE)
                    pattern.append(False)
                except OSError:
                    pattern.append(True)
            return pattern

        first, second = fire_pattern(), fire_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_probability_zero_never_fires(self):
        failpoints.arm(SITE, error="io", probability=0.0, seed=1)
        assert all(failpoints.failpoint(SITE) is None for _ in range(16))


class TestValidation:
    def test_action_required(self):
        with pytest.raises(InvalidParameterError, match="action"):
            failpoints.arm(SITE)

    def test_error_and_crash_exclusive(self):
        with pytest.raises(InvalidParameterError, match="exclusive"):
            failpoints.arm(SITE, error="io", crash=True)

    def test_bad_shorthand_rejected_at_arm_time(self):
        with pytest.raises(InvalidParameterError):
            failpoints.arm(SITE, error="kaboom")

    def test_unregistered_site_rejected(self):
        # A typo'd name would arm a site nothing calls: a silent no-op.
        with pytest.raises(InvalidParameterError, match="wal.apend") as info:
            failpoints.arm("wal.apend", error="io")
        assert all(site in str(info.value) for site in failpoints.SITES)
        with pytest.raises(InvalidParameterError, match="wal.apend"):
            with failpoints.armed("wal.apend", error="io"):
                pass
        assert failpoints.list_armed() == {}

    @pytest.mark.parametrize(
        "config",
        [{"on_hit": 0}, {"probability": 1.5}, {"probability": -0.1},
         {"times": 0}],
    )
    def test_bad_trigger_rejected(self, config):
        with pytest.raises(InvalidParameterError):
            failpoints.arm(SITE, error="io", **config)


class TestScoping:
    def test_armed_context_disarms_on_exit(self):
        with failpoints.armed(SITE, error="io"):
            with pytest.raises(OSError):
                failpoints.failpoint(SITE)
        assert failpoints.failpoint(SITE) is None

    def test_armed_context_restores_previous_arming(self):
        outer = failpoints.arm(SITE, payload="outer")
        with failpoints.armed(SITE, payload="inner"):
            assert failpoints.failpoint(SITE) == "inner"
        assert failpoints.failpoint(SITE) == "outer"
        assert failpoints.list_armed()[SITE] is outer

    def test_disarm_unknown_site_is_noop(self):
        failpoints.disarm("never-armed")

    def test_reset_disarms_everything(self):
        failpoints.arm("wal.append", error="io")
        failpoints.arm("wal.fsync", crash=True)
        failpoints.reset()
        assert failpoints.list_armed() == {}


class TestAccounting:
    def test_site_stats_count_hits_and_fires(self, fresh_default_registry):
        point = failpoints.arm(SITE, error="io", on_hit=2)
        assert failpoints.failpoint(SITE) is None
        with pytest.raises(OSError):
            failpoints.failpoint(SITE)
        assert point.stats() == {"hits": 2, "fired": 1}
        injected = fresh_default_registry.get("repro_faults_injected_total")
        assert injected.labels(site=SITE).value == 1
        stats = failpoints.site_stats()[SITE]
        assert stats["hits"] == 2 and stats["fired"] == 1
        assert stats["lifetime_hits"] >= 2

    def test_lifetime_hits_survive_reset(self):
        failpoints.arm(SITE, error="io", on_hit=99)
        failpoints.failpoint(SITE)
        failpoints.reset()
        assert failpoints.site_stats()[SITE]["lifetime_hits"] >= 1
