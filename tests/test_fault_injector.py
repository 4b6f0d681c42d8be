"""FaultInjector: determinism, per-fault semantics, monitor integration."""

import math

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.robustness.faults import FaultInjector, FaultSpec

from .conftest import TEST_BOUNDS
from .test_exactness import Stream, check


def _batches(n_batches=4, n_objects=6):
    """A clean synthetic stream: every object reports every timestamp."""
    out = []
    for t in range(n_batches):
        out.append(
            [
                ObjectUpdate(oid, Point(10.0 * (oid + 1), 10.0 * (t + 1)))
                for oid in range(n_objects)
            ]
        )
    return out


class TestDeterminism:
    def test_same_spec_same_stream(self):
        spec = FaultSpec.harsh(seed=42)
        a = list(FaultInjector(spec).stream(_batches()))
        b = list(FaultInjector(spec).stream(_batches()))
        # repr-compare: NaN coordinates defeat tuple equality.
        assert repr(a) == repr(b)

    def test_different_seed_different_stream(self):
        a = list(FaultInjector(FaultSpec.harsh(seed=1)).stream(_batches()))
        b = list(FaultInjector(FaultSpec.harsh(seed=2)).stream(_batches()))
        assert repr(a) != repr(b)

    def test_inactive_spec_passes_through(self):
        inj = FaultInjector(FaultSpec())
        assert not inj.spec.active()
        assert list(inj.stream(_batches())) == _batches()
        assert inj.log.count() == 0


class TestFaultSemantics:
    def test_drop_everything(self):
        inj = FaultInjector(FaultSpec(drop=1.0, seed=0))
        out = list(inj.stream(_batches(3, 4)))
        assert all(batch == [] for batch in out)
        assert inj.log.count("drop") == 12

    def test_duplicate_everything(self):
        inj = FaultInjector(FaultSpec(duplicate=1.0, seed=0))
        out = list(inj.stream(_batches(2, 3)))
        for faulted, clean in zip(out, _batches(2, 3)):
            assert len(faulted) == 2 * len(clean)
            assert faulted[0] == faulted[1]  # delivered back to back
        assert inj.log.count("duplicate") == 6

    def test_reorder_defers_to_next_batch_and_flushes(self):
        inj = FaultInjector(FaultSpec(reorder=1.0, seed=0))
        out = list(inj.stream(_batches(2, 3)))
        clean = _batches(2, 3)
        # Everything shifts one batch late; a trailing flush batch appears.
        assert out[0] == []
        assert out[1] == clean[0]
        assert out[2] == clean[1]
        assert inj.log.count("reorder") == 6

    def test_corrupt_produces_invalid_coordinates(self):
        inj = FaultInjector(FaultSpec(corrupt=1.0, seed=3))
        out = list(inj.stream(_batches(2, 5)))
        for batch in out:
            for update in batch:
                x, y = update.pos
                bad = (
                    not (math.isfinite(x) and math.isfinite(y))
                    or not TEST_BOUNDS.contains_point(update.pos)
                )
                assert bad, f"corrupted update has clean coordinates: {update}"
        assert inj.log.count("corrupt") == 10

    def test_stale_replays_an_earlier_position(self):
        inj = FaultInjector(FaultSpec(stale=1.0, seed=0))
        clean = _batches(3, 2)
        out = list(inj.stream(clean))
        # First batch has no history, so no stale replays there.
        assert out[0] == clean[0]
        stale_events = [e for e in inj.log.events if e.kind == "stale"]
        assert stale_events, "no stale replays injected"
        history = {}
        for batch in clean:
            for u in batch:
                history.setdefault(u.oid, []).append(u.pos)
        for event in stale_events:
            assert event.update.pos in history[event.update.oid]

    def test_query_updates_faulted_too(self):
        batches = [[QueryUpdate(5, Point(1.0, 1.0))], [QueryUpdate(5, Point(2.0, 2.0))]]
        inj = FaultInjector(FaultSpec(drop=1.0, seed=0))
        assert list(inj.stream(batches)) == [[], []]
        assert inj.log.count("drop") == 2

    def test_log_counts(self):
        inj = FaultInjector(FaultSpec.harsh(seed=9))
        list(inj.stream(_batches(6, 8)))
        counts = inj.log.counts()
        assert sum(counts.values()) == inj.log.count()
        assert set(counts) <= {"drop", "duplicate", "reorder", "stale", "corrupt"}


class TestMonitorIntegration:
    """A faulted stream through a guarded monitor stays exact versus an
    oracle fed the effective (guard-admitted) stream."""

    def test_faulted_stream_exact_for_all_variants(self, variant):
        clean = _batches(6, 10)
        # Interleave some deletes and re-inserts to exercise unknown-
        # delete handling once drops eat the inserts.
        clean[2].append(ObjectUpdate(3, None))
        clean[3].append(ObjectUpdate(3, Point(500.0, 500.0)))
        clean[4].append(ObjectUpdate(7, None))
        injector = FaultInjector(FaultSpec.harsh(seed=11))
        batches = [[QueryUpdate(9000, Point(55.0, 25.0))], *injector.stream(clean)]
        check(variant, Stream(None, batches, guard_policy="drop"))
        assert injector.log.count() > 0
