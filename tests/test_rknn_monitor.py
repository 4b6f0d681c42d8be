"""Tests for the continuous reverse k-NN monitor."""

import random

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.monitors import RknnMonitor

from .test_exactness import check, replay, rknn, shape

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def _monitor(grid_cells: int = 8) -> RknnMonitor:
    return RknnMonitor(BOUNDS, grid_cells=grid_cells)


class TestBasics:
    def test_k1_matches_crnn_monitor(self):
        check("lu+pi", shape("teleports-10"), rknn)

    def test_monotone_in_k(self):
        rng = random.Random(2)
        positions = {
            oid: Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for oid in range(30)
        }
        q = Point(500.0, 500.0)
        results = []
        for k in (1, 2, 4):
            m = _monitor()
            for oid, p in positions.items():
                m.add_object(oid, p)
            results.append(m.add_query(1, q, k=k))
        assert results[0] <= results[1] <= results[2]

    def test_k_validation(self):
        m = _monitor()
        with pytest.raises(ValueError):
            m.add_query(1, Point(0.0, 0.0), k=0)

    def test_duplicate_query_rejected(self):
        m = _monitor()
        m.add_query(1, Point(0.0, 0.0), k=1)
        with pytest.raises(KeyError):
            m.add_query(1, Point(1.0, 1.0), k=2)

    def test_exclusion(self):
        m = _monitor()
        m.add_object(1, Point(100.0, 100.0))
        m.add_object(2, Point(105.0, 100.0))
        result = m.add_query(1, Point(102.0, 100.0), k=1, exclude={1})
        assert result == frozenset({2})
        m.update_object(1, Point(104.0, 100.0))
        assert m.rknn(1) == frozenset({2})
        m.validate()

    def test_events_replay(self):
        rng = random.Random(3)
        m = _monitor()
        for oid in range(25):
            m.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        m.add_query(1, Point(500.0, 500.0), k=3)
        m.drain_events()
        shadow = {1: set(m.rknn(1))}
        for _ in range(120):
            m.update_object(
                rng.randrange(25), Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            )
            assert frozenset(replay(m.drain_events(), shadow)[1]) == m.rknn(1)


class TestRandomised:
    @pytest.mark.parametrize("grid_cells", [4, 12])
    def test_against_brute_force(self, grid_cells):
        rng = random.Random(40 + grid_cells)
        m = _monitor(grid_cells)
        oids = list(range(25))
        for oid in oids:
            m.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        for qid, k in ((1, 1), (2, 3), (3, 6)):
            m.add_query(qid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)), k)
        next_oid = 25
        for step in range(180):
            r = rng.random()
            if r < 0.55:
                m.update_object(
                    rng.choice(oids), Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                )
            elif r < 0.68:
                m.add_object(
                    next_oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                )
                oids.append(next_oid)
                next_oid += 1
            elif r < 0.8 and len(oids) > 3:
                oid = oids.pop(rng.randrange(len(oids)))
                m.remove_object(oid)
            else:
                m.update_query(
                    rng.choice((1, 2, 3)),
                    Point(rng.uniform(0, 1000), rng.uniform(0, 1000)),
                )
            m.validate()  # checks against brute_force_rknn

    def test_batch_api(self):
        rng = random.Random(50)
        m = _monitor()
        for oid in range(20):
            m.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        m.add_query(1, Point(400.0, 600.0), k=2)
        for _ in range(50):
            batch: list = [
                ObjectUpdate(
                    rng.randrange(20), Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                )
                for _ in range(rng.randrange(1, 5))
            ]
            if rng.random() < 0.2:
                batch.append(
                    QueryUpdate(1, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
                )
            m.process(batch)
            m.validate()

    def test_regression_candidate_changes_sector(self):
        """Regression: a candidate moving into another sector's top-k must
        not be dropped from the verified set by its old sector's re-search."""
        rng = random.Random(0)
        m = _monitor(5)
        for oid in range(12):
            m.add_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        m.add_query(1, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)), k=2)
        for _ in range(30):
            oid = rng.randrange(12)
            m.update_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
            m.validate()
