"""Tests for the TPL-FUR recompute-everything baseline."""

import random

from repro.core.baseline import TPLFURBaseline
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.oracle import brute_force_rnn
from repro.geometry.point import Point

from .conftest import random_point
from .test_exactness import Stream, api, check, load_batch, tpl_fur


class TestBasics:
    def test_roundtrip(self):
        base = TPLFURBaseline()
        base.add_object(1, Point(100.0, 100.0))
        base.add_query(50, Point(150.0, 100.0))
        assert base.recompute_all() == {50: frozenset({1})}
        base.update_object(1, Point(600.0, 600.0))
        assert base.rnn(50) == frozenset({1})
        base.remove_object(1)
        assert base.rnn(50) == frozenset()

    def test_update_object_inserts_unknown(self):
        base = TPLFURBaseline()
        base.update_object(3, Point(1.0, 2.0))
        assert 3 in base.tree

    def test_exclusions(self):
        base = TPLFURBaseline()
        base.add_object(1, Point(100.0, 100.0))
        base.add_object(2, Point(130.0, 100.0))
        base.add_query(50, Point(100.0, 100.0), exclude={1})
        assert base.rnn(50) == frozenset({2})


class TestAgainstOracle:
    def test_random_stream_matches_brute_force(self):
        rng = random.Random(17)
        batches = [load_batch(rng, 40, 6)]
        for _ in range(40):
            batches.append([
                ObjectUpdate(rng.randrange(40), random_point(rng)) if rng.random() < 0.7
                else QueryUpdate(10_000 + rng.randrange(6), random_point(rng))
                for _ in range(rng.randrange(1, 8))
            ])
        check("lu+pi", Stream(None, batches), tpl_fur)

    def test_agrees_with_incremental_monitor(self):
        # One update per tick, through the monitor's single-object API too.
        rng = random.Random(18)
        batches = [load_batch(rng, 30, 5)]
        batches += [[ObjectUpdate(rng.randrange(30), random_point(rng))] for _ in range(60)]
        check("lu+pi", Stream(None, batches, grid_cells=10), tpl_fur)
        check("lu+pi", Stream(None, batches, grid_cells=10), api)


class TestOracleItself:
    def test_brute_force_rnn_definition(self):
        positions = {
            1: Point(0.0, 0.0),
            2: Point(10.0, 0.0),
            3: Point(100.0, 0.0),
        }
        q = Point(4.0, 0.0)
        # o1: nearest other object is o2 at 10 > d(o1,q)=4 -> RNN
        # o2: o1 at 10 > d(o2,q)=6 -> RNN
        # o3: o2 at 90 < d(o3,q)=96 -> not RNN
        assert brute_force_rnn(positions, q) == frozenset({1, 2})

    def test_ties_are_not_disproofs(self):
        positions = {1: Point(0.0, 0.0), 2: Point(10.0, 0.0)}
        q = Point(10.0, 10.0)
        # o2: d(o2, o1) = 10 == d(o2, q) = 10 — a tie is no disproof (strict <)
        # o1: d(o1, o2) = 10 <  d(o1, q) ~ 14.14 — disproved
        assert brute_force_rnn(positions, q) == frozenset({2})
