"""Checkpoint/recovery: round-trips, verification, malformed snapshots."""

import random

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.geometry.point import Point
from repro.robustness.checkpoint import (
    CheckpointError,
    from_json,
    restore,
    to_json,
)

from .conftest import make_monitor, random_point
from .test_exactness import check, golden, load_batch, single


def _busy_monitor(variant, seed=0):
    """A monitor with live traffic behind it (not just a fresh build)."""
    rng = random.Random(seed)
    mon = make_monitor(variant)
    mon.process(load_batch(rng, 50, 8))
    for _ in range(5):
        batch = [ObjectUpdate(rng.randrange(50), random_point(rng)) for _ in range(10)]
        batch.append(QueryUpdate(10_000 + rng.randrange(8), random_point(rng)))
        mon.process(batch)
    return mon


class TestRoundTrip:
    def test_restore_reproduces_results_exactly(self, variant):
        mon = _busy_monitor(variant)
        snap = mon.checkpoint()
        restored = CRNNMonitor.from_checkpoint(snap)
        assert restored.results() == mon.results()
        assert restored.object_count() == mon.object_count()
        assert restored.query_count() == mon.query_count()
        assert restored.config == mon.config
        restored.validate()
        assert mon.stats.checkpoints_saved == 1
        assert restored.stats.checkpoints_restored == 1

    def test_json_round_trip(self, variant):
        mon = _busy_monitor(variant, seed=3)
        text = to_json(mon.checkpoint(), indent=2)
        snap = from_json(text)
        restored = restore(snap)
        assert restored.results() == mon.results()
        # Serialization is stable: same ground truth, same document
        # (stats are op counters and legitimately differ).
        a = restored.checkpoint()
        b = mon.checkpoint()
        a.pop("stats"), b.pop("stats")
        assert to_json(a, indent=2) == to_json(b, indent=2)

    def test_restored_monitor_keeps_monitoring(self, variant):
        # Snapshots written before the kernel-mode switch was retired
        # carry this key: it is ignored, and not written back.
        def then(driver):
            snap = driver.monitor.checkpoint()
            snap["config"]["vectorized"] = False
            rebuilt = driver.resumed(CRNNMonitor.from_checkpoint(snap))
            assert "vectorized" not in rebuilt.monitor.checkpoint()["config"]
            rebuilt.regions = rebuilt.counters = False  # fresh certificates
            return rebuilt

        check(variant, golden(5), single, at=6, then=then)

    def test_fur_fanout_of_an_older_snapshot_is_ignored(self, variant):
        # Snapshots written while the circ store was a FUR-tree carry its
        # fanout: such a snapshot restores and verifies, and the key is
        # not written back.
        mon = _busy_monitor(variant, seed=7)
        snap = mon.checkpoint()
        snap["config"]["fur_fanout"] = 20
        restored = restore(snap)
        assert restored.results() == mon.results()
        assert restored.config == mon.config
        assert "fur_fanout" not in restored.checkpoint()["config"]
        restored.validate()

    def test_exclude_sets_survive(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_object(2, Point(120.0, 100.0))
        mon.add_query(50, Point(110.0, 100.0), exclude=(1,))
        restored = CRNNMonitor.from_checkpoint(mon.checkpoint())
        assert restored.qt.get(50).exclude == frozenset({1})
        assert restored.rnn(50) == mon.rnn(50)

    def test_empty_monitor_round_trips(self, variant):
        mon = make_monitor(variant)
        restored = CRNNMonitor.from_checkpoint(mon.checkpoint())
        assert restored.results() == {}
        assert restored.object_count() == 0


class TestVerification:
    def test_tampered_results_fail_verification(self, variant):
        mon = _busy_monitor(variant)
        snap = mon.checkpoint()
        assert snap["results"], "busy monitor should have results"
        qid, oids = snap["results"][0]
        snap["results"][0] = [qid, oids + [424242]]
        with pytest.raises(CheckpointError, match="diverge"):
            restore(snap)

    def test_tampering_allowed_without_verify(self, variant):
        mon = _busy_monitor(variant)
        snap = mon.checkpoint()
        qid, oids = snap["results"][0]
        snap["results"][0] = [qid, oids + [424242]]
        restored = restore(snap, verify=False)
        restored.validate()  # state itself is consistent; only the
        # recorded result log was wrong


class TestMalformedSnapshots:
    def test_not_a_checkpoint(self):
        with pytest.raises(CheckpointError):
            restore({"format": "something-else"})
        with pytest.raises(CheckpointError):
            restore("not a dict")  # type: ignore[arg-type]

    def test_unsupported_version(self, variant):
        snap = make_monitor(variant).checkpoint()
        snap["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            restore(snap)

    def test_missing_section(self, variant):
        snap = make_monitor(variant).checkpoint()
        del snap["objects"]
        with pytest.raises(CheckpointError, match="malformed"):
            restore(snap)

    def test_invalid_json(self):
        with pytest.raises(CheckpointError):
            from_json("{not json")
        with pytest.raises(CheckpointError):
            from_json("[1, 2, 3]")

    def test_snapshot_is_json_safe(self, variant):
        # Every leaf serializes without custom encoders.
        to_json(_busy_monitor(variant).checkpoint())
