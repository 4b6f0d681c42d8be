"""Tests for the road networks, movers, and workload generator."""

import random

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point, dist
from repro.geometry.rect import Rect
from repro.mobility.generator import NetworkGenerator
from repro.mobility.network import (
    RoadNetwork,
    grid_network,
    oldenburg_like,
    random_geometric_network,
)
from repro.mobility.objects import NetworkMover
from repro.mobility.workload import QUERY_ID_BASE, Workload, WorkloadSpec

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


class TestRoadNetwork:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RoadNetwork([], [], BOUNDS)
        with pytest.raises(ValueError):
            RoadNetwork([Point(1.0, 1.0)], [], BOUNDS)

    def test_dedupes_and_drops_degenerate_edges(self):
        nodes = [Point(0.0, 0.0), Point(10.0, 0.0)]
        net = RoadNetwork(nodes, [(0, 1), (1, 0), (0, 0)], BOUNDS)
        assert len(net.edges) == 1

    def test_position_on_edge(self):
        net = RoadNetwork([Point(0.0, 0.0), Point(10.0, 0.0)], [(0, 1)], BOUNDS)
        assert net.position_on_edge(0, 5.0, from_node=0) == Point(5.0, 0.0)
        assert net.position_on_edge(0, 5.0, from_node=1) == Point(5.0, 0.0)
        assert net.position_on_edge(0, 2.0, from_node=1) == Point(8.0, 0.0)

    def test_other_end(self):
        net = RoadNetwork([Point(0.0, 0.0), Point(10.0, 0.0)], [(0, 1)], BOUNDS)
        assert net.other_end(0, 0) == 1 and net.other_end(0, 1) == 0


class TestGenerators:
    def test_grid_network_connected(self):
        for seed in range(4):
            net = grid_network(8, 8, BOUNDS, rng=random.Random(seed))
            assert net.is_connected()
            assert all(BOUNDS.contains_point(p) for p in net.nodes)

    def test_grid_network_rejects_tiny(self):
        with pytest.raises(ValueError):
            grid_network(1, 5, BOUNDS)

    def test_random_geometric_connected(self):
        net = random_geometric_network(60, BOUNDS, rng=random.Random(1))
        assert net.is_connected()
        assert len(net.nodes) >= 30

    def test_oldenburg_like_is_substantial(self):
        net = oldenburg_like(BOUNDS, random.Random(0))
        assert len(net.nodes) > 300 and len(net.edges) > 500
        assert net.is_connected()


class TestMover:
    def test_stays_on_network(self):
        rng = random.Random(2)
        net = grid_network(6, 6, BOUNDS, rng=rng)
        mover = NetworkMover(net, rng)
        for _ in range(200):
            p = mover.advance(rng)
            assert BOUNDS.contains_point(p)
            # position must be on the current edge segment
            edge = net.edges[mover.eid]
            a, b = net.nodes[edge.u], net.nodes[edge.v]
            cross = abs((b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x))
            assert cross <= 1e-6 * (1.0 + edge.length) * (1.0 + edge.length)

    def test_moves_are_speed_bounded(self):
        rng = random.Random(3)
        net = grid_network(6, 6, BOUNDS, rng=rng)
        mover = NetworkMover(net, rng)
        prev = mover.position
        for _ in range(100):
            cur = mover.advance(rng)
            # straight-line displacement can't exceed distance travelled
            assert dist(prev, cur) <= mover.speed + 1e-9
            prev = cur

    def test_dead_end_turnaround(self):
        net = RoadNetwork([Point(0.0, 0.0), Point(10.0, 0.0)], [(0, 1)], BOUNDS)
        rng = random.Random(4)
        mover = NetworkMover(net, rng)
        for _ in range(50):
            p = mover.advance(rng)
            assert 0.0 <= p.x <= 10.0 and p.y == 0.0


class TestNetworkGenerator:
    def test_tick_respects_mobility(self):
        net = grid_network(6, 6, BOUNDS, rng=random.Random(5))
        gen = NetworkGenerator(net, 100, seed=1)
        assert len(gen.tick(0.0)) == 0
        assert len(gen.tick(0.25)) == 25
        assert len(gen.tick(1.0)) == 100

    def test_tick_rejects_bad_mobility(self):
        net = grid_network(4, 4, BOUNDS, rng=random.Random(0))
        gen = NetworkGenerator(net, 10, seed=1)
        with pytest.raises(ValueError):
            gen.tick(1.5)

    def test_deterministic_given_seed(self):
        net = grid_network(6, 6, BOUNDS, rng=random.Random(5))
        a = NetworkGenerator(net, 50, seed=9)
        b = NetworkGenerator(net, 50, seed=9)
        assert a.positions() == b.positions()
        assert a.tick(0.3) == b.tick(0.3)

    def test_first_id_offset(self):
        net = grid_network(4, 4, BOUNDS, rng=random.Random(0))
        gen = NetworkGenerator(net, 5, seed=1, first_id=100)
        assert sorted(gen.ids()) == [100, 101, 102, 103, 104]


class TestWorkload:
    def test_structure(self):
        spec = WorkloadSpec(
            num_objects=80, num_queries=10, object_mobility=0.25,
            query_mobility=0.2, timestamps=4, seed=3, bounds=BOUNDS,
        )
        w = Workload(spec)
        assert len(w.initial_objects()) == 80
        assert len(w.initial_queries()) == 10
        assert all(qid >= QUERY_ID_BASE for qid in w.initial_queries())
        batches = list(w.batches())
        assert len(batches) == 4
        for batch in batches:
            obj_updates = [u for u in batch if isinstance(u, ObjectUpdate)]
            query_updates = [u for u in batch if isinstance(u, QueryUpdate)]
            assert len(obj_updates) == 20
            assert len(query_updates) == 2

    def test_load_into_monitor_and_run(self):
        from repro.mobility.trace import Trace

        from .test_exactness import Stream, check

        spec = WorkloadSpec(
            num_objects=60, num_queries=6, object_mobility=0.3,
            query_mobility=0.2, timestamps=5, seed=11, bounds=BOUNDS,
        )
        assert list(Workload(spec).batches()) == list(Workload(spec).batches())
        trace = Trace.record(Workload(spec))
        load = [ObjectUpdate(oid, p) for oid, p in sorted(trace.objects.items())]
        load += [QueryUpdate(qid, p) for qid, p in sorted(trace.queries.items())]
        check("lu+pi", Stream(None, [load, *trace.batches], grid_cells=10, bounds=BOUNDS))

    def test_scaled(self):
        spec = WorkloadSpec(num_objects=100, num_queries=10)
        half = spec.scaled(0.5)
        assert half.num_objects == 50 and half.num_queries == 5
