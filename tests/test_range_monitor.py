"""Tests for the continuous range monitor."""

import random

import pytest

from repro.core.events import ObjectUpdate, ResultChange
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.monitors import RangeMonitor

from .test_exactness import replay

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def _monitor() -> RangeMonitor:
    return RangeMonitor(BOUNDS, grid_cells=8)


class TestBasics:
    def test_initial_result(self):
        m = _monitor()
        m.add_object(1, Point(150.0, 150.0))
        m.add_object(2, Point(600.0, 600.0))
        assert m.add_query(10, Rect(100, 100, 200, 200)) == frozenset({1})
        assert m.result(10) == frozenset({1})

    def test_duplicate_query_rejected(self):
        m = _monitor()
        m.add_query(10, Rect(0, 0, 10, 10))
        with pytest.raises(KeyError):
            m.add_query(10, Rect(0, 0, 20, 20))

    def test_boundary_is_closed(self):
        m = _monitor()
        m.add_object(1, Point(200.0, 200.0))  # exactly on the corner
        assert m.add_query(10, Rect(100, 100, 200, 200)) == frozenset({1})

    def test_enter_and_leave_events(self):
        m = _monitor()
        m.add_query(10, Rect(100, 100, 200, 200))
        m.add_object(1, Point(500.0, 500.0))
        assert m.drain_events() == []
        m.update_object(1, Point(150.0, 150.0))
        assert m.drain_events() == [ResultChange(10, 1, gained=True)]
        m.update_object(1, Point(800.0, 800.0))
        assert m.drain_events() == [ResultChange(10, 1, gained=False)]

    def test_remove_object_leaves(self):
        m = _monitor()
        m.add_object(1, Point(150.0, 150.0))
        m.add_query(10, Rect(100, 100, 200, 200))
        m.remove_object(1)
        assert m.result(10) == frozenset()

    def test_move_within_range_no_event(self):
        m = _monitor()
        m.add_object(1, Point(150.0, 150.0))
        m.add_query(10, Rect(100, 100, 200, 200))
        m.drain_events()
        m.update_object(1, Point(190.0, 110.0))
        assert m.drain_events() == []

    def test_update_query_net_diff(self):
        m = _monitor()
        m.add_object(1, Point(150.0, 150.0))
        m.add_object(2, Point(650.0, 650.0))
        m.add_query(10, Rect(100, 100, 200, 200))
        m.drain_events()
        m.update_query(10, Rect(600, 600, 700, 700))
        events = set(m.drain_events())
        assert events == {
            ResultChange(10, 1, gained=False),
            ResultChange(10, 2, gained=True),
        }

    def test_remove_query_cleans_watchers(self):
        m = _monitor()
        m.add_query(10, Rect(0, 0, 1000, 1000))
        m.remove_query(10)
        assert all(not c.watchers for c in m.grid.all_cells())


class TestRandomised:
    def test_against_full_scan(self):
        rng = random.Random(5)
        m = _monitor()
        for oid in range(60):
            m.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        for qid in range(10, 16):
            x1, x2 = sorted(rng.uniform(0, 1000) for _ in range(2))
            y1, y2 = sorted(rng.uniform(0, 1000) for _ in range(2))
            m.add_query(qid, Rect(x1, y1, x2, y2))
        for step in range(300):
            batch = [
                ObjectUpdate(
                    rng.randrange(60), Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                )
                for _ in range(rng.randrange(1, 5))
            ]
            m.process(batch)
            m.validate()

    def test_event_stream_replays(self):
        rng = random.Random(6)
        m = _monitor()
        for oid in range(30):
            m.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        m.add_query(10, Rect(200, 200, 700, 700))
        shadow = {10: set(m.result(10))}
        for _ in range(200):
            m.update_object(
                rng.randrange(30), Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            )
            assert frozenset(replay(m.drain_events(), shadow)[10]) == m.result(10)
