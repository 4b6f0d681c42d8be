"""API-level behaviour tests for CRNNMonitor (all variants)."""

import random

import pytest

from repro.core.config import MonitorConfig
from repro.core.oracle import BruteForceMonitor
from repro.core.events import ObjectUpdate, QueryUpdate, ResultChange
from repro.geometry.point import Point
from repro.robustness.guard import IngestionError

from .conftest import make_monitor
from .test_exactness import api, check, shape


class TestLifecycle:
    def test_empty_monitor(self, variant):
        mon = make_monitor(variant)
        assert mon.object_count() == 0 and mon.query_count() == 0

    def test_single_object_single_query(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        assert mon.add_query(50, Point(200.0, 200.0)) == frozenset({1})
        assert mon.rnn(50) == frozenset({1})

    def test_add_query_before_objects(self, variant):
        mon = make_monitor(variant)
        assert mon.add_query(50, Point(200.0, 200.0)) == frozenset()
        mon.add_object(1, Point(100.0, 100.0))
        assert mon.rnn(50) == frozenset({1})

    def test_remove_query_clears_state(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(50, Point(200.0, 200.0))
        mon.remove_query(50)
        assert mon.query_count() == 0
        with pytest.raises(KeyError):
            mon.rnn(50)
        # grid book-keeping fully cleaned
        for cell in mon.grid.all_cells():
            assert 50 not in cell.pie_queries
            assert not any(key[0] == 50 for key in cell.circ_queries)

    def test_remove_object_updates_results(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_object(2, Point(900.0, 900.0))
        mon.add_query(50, Point(150.0, 100.0))
        assert 1 in mon.rnn(50)
        mon.remove_object(1)
        assert mon.rnn(50) == frozenset({2})

    def test_duplicate_query_rejected(self, variant):
        mon = make_monitor(variant)
        mon.add_query(50, Point(1.0, 1.0))
        with pytest.raises(IngestionError):
            mon.add_query(50, Point(2.0, 2.0))

    def test_update_object_inserts_unknown_id(self, variant):
        mon = make_monitor(variant)
        mon.add_query(50, Point(100.0, 100.0))
        mon.update_object(9, Point(110.0, 100.0))
        assert mon.rnn(50) == frozenset({9})


class TestEvents:
    def test_gain_and_loss_events(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(50, Point(150.0, 100.0))
        mon.drain_events()
        # o2 lands right next to o1: o1 stops being q's RNN.
        mon.add_object(2, Point(101.0, 100.0))
        events = mon.drain_events()
        assert ResultChange(50, 1, gained=False) in events
        assert mon.drain_events() == []  # drained

    def test_query_move_emits_net_diff(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_object(2, Point(900.0, 900.0))
        mon.add_query(50, Point(120.0, 100.0))
        mon.drain_events()
        before = set(mon.rnn(50))
        mon.update_query(50, Point(880.0, 900.0))
        events = mon.drain_events()
        # replaying the emitted net diff onto the old result gives the new one
        for event in events:
            assert event.qid == 50
            if event.gained:
                assert event.oid not in before
                before.add(event.oid)
            else:
                assert event.oid in before
                before.discard(event.oid)
        assert frozenset(before) == mon.rnn(50)

    def test_batch_process_returns_delta(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(50, Point(150.0, 100.0))
        mon.drain_events()
        delta = mon.process([ObjectUpdate(2, Point(101.0, 100.0))])
        assert any(e.qid == 50 and not e.gained and e.oid == 1 for e in delta)

    def test_events_replay_to_current_results(self, variant):
        """Applying the event stream to the old results gives the new ones:
        the harness replays the reference's events after every tick, and
        single-object calls must emit exactly those events."""
        check(variant, shape("teleports-12"), api)


class TestExclusions:
    def test_query_with_own_object(self, variant):
        """BotFighters-style: the query owner's avatar is excluded."""
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))  # the player himself
        mon.add_object(2, Point(130.0, 100.0))
        mon.add_query(50, Point(100.0, 100.0), exclude={1})
        assert mon.rnn(50) == frozenset({2})
        # the excluded object moving right next to o2 must not disqualify it
        mon.update_object(1, Point(131.0, 100.0))
        assert mon.rnn(50) == frozenset({2})


class TestResultsView:
    def test_results_snapshot(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(50, Point(150.0, 100.0))
        mon.add_query(51, Point(850.0, 900.0))
        snapshot = mon.results()
        assert snapshot[50] == frozenset({1})
        assert snapshot[51] == frozenset({1})

    def test_process_rejects_garbage(self, variant):
        mon = make_monitor(variant)
        with pytest.raises(TypeError):
            mon.process(["nonsense"])


class TestQueryBatchSemantics:
    def test_batch_with_query_add_and_remove(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.process([QueryUpdate(60, Point(200.0, 100.0))])
        assert mon.rnn(60) == frozenset({1})
        mon.process([QueryUpdate(60, None)])
        assert mon.query_count() == 0

    def test_mixed_batch(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(60, Point(200.0, 100.0))
        mon.process(
            [
                ObjectUpdate(2, Point(205.0, 100.0)),
                ObjectUpdate(1, Point(500.0, 500.0)),
                QueryUpdate(61, Point(490.0, 500.0)),
            ]
        )
        assert mon.rnn(60) == frozenset({2})
        # o1 is right next to q61; o2 is also q61's RNN because q61
        # (dist ~491) beats its nearest object o1 (dist ~497).
        assert mon.rnn(61) == frozenset({1, 2})
        mon.validate()

    def test_burst_keeps_exclude_until_the_id_is_re_added(self, variant):
        """A query registered with an exclude set keeps it through every
        move of one batch; deleted and re-added within a batch, it comes
        back with none.  Each burst is checked against a twin fed the
        same updates one call at a time, and against the oracle."""
        rng = random.Random(9)
        batched, single, oracle = make_monitor(variant), make_monitor(variant), BruteForceMonitor()
        feeds = (batched, single, oracle)
        for oid in range(40):
            p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for m in feeds:
                m.add_object(oid, p)
        near = batched.grid.positions[0]
        for m in feeds:
            m.add_query(70, Point(near.x + 0.5, near.y + 0.5), exclude={0, 1})
            m.add_query(71, Point(500.5, 500.5))

        def burst(updates):
            batched.process(updates)
            for u in updates:
                if u.pos is None:
                    single.remove_query(u.qid)
                else:
                    single.update_query(u.qid, u.pos)
            oracle.process(updates)
            assert batched.drain_events() == single.drain_events()
            assert batched.results() == single.results() == oracle.results()
            batched.validate()

        def somewhere():
            return Point(rng.uniform(0, 1000), rng.uniform(0, 1000))

        burst([QueryUpdate(70, somewhere()), QueryUpdate(71, somewhere()),
               QueryUpdate(70, Point(near.x - 0.5, near.y))])
        assert batched.qt.get(70).exclude == frozenset({0, 1})
        burst([QueryUpdate(70, None), QueryUpdate(70, somewhere()),
               QueryUpdate(70, Point(near.x, near.y + 0.5))])
        assert batched.qt.get(70).exclude == frozenset()


class TestRebuild:
    def test_rebuild_preserves_results(self, variant):
        rng = random.Random(4)
        mon = make_monitor(variant)
        for oid in range(30):
            mon.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        for qid in (50, 51, 52):
            mon.add_query(qid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        before = mon.results()
        mon.drain_events()
        mon.rebuild()
        assert mon.results() == before
        assert mon.drain_events() == []  # nothing changed -> no events
        mon.validate()


class TestSummary:
    def test_summary_shape(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_object(2, Point(200.0, 100.0))
        mon.add_query(50, Point(150.0, 100.0))
        s = mon.summary()
        assert s["objects"] == 2.0
        assert s["queries"] == 1.0
        assert s["results"] == len(mon.rnn(50))
        assert 1 <= s["candidates"] <= 6
        assert s["circ_records"] == s["candidates"]
        assert s["bounded_pies"] >= 1
        assert s["avg_pie_radius"] > 0.0

    def test_empty_summary(self, variant):
        s = make_monitor(variant).summary()
        assert s["objects"] == s["queries"] == s["avg_pie_radius"] == 0.0


class TestConfigVariants:
    def test_variant_selection(self):
        from repro.core.circ_store import FurCircStore
        from repro.core.uniform import GridCircStore

        assert isinstance(make_monitor("uniform").circ, GridCircStore)
        assert isinstance(make_monitor("lu-only").circ, FurCircStore)
        lupi = make_monitor("lu+pi")
        assert isinstance(lupi.circ, FurCircStore)
        assert lupi.circ.threshold == pytest.approx(0.8)
        assert make_monitor("lu-only").circ.threshold == 0.0

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            MonitorConfig(variant="nonsense")

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            MonitorConfig(partial_insert_threshold=1.5)
