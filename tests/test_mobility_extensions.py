"""Tests for free-space mobility models and workload traces."""

import io
import random

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.oracle import BruteForceMonitor
from repro.geometry.point import Point, dist
from repro.geometry.rect import Rect
from repro.mobility.freespace import (
    HotspotGenerator,
    RandomWalkGenerator,
    WaypointGenerator,
)
from repro.mobility.trace import Trace
from repro.mobility.workload import Workload, WorkloadSpec

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


class TestRandomWalk:
    def test_positions_stay_in_bounds(self):
        gen = RandomWalkGenerator(BOUNDS, 50, step_fraction=0.1, seed=1)
        for _ in range(50):
            for pos in gen.tick(1.0).values():
                assert BOUNDS.contains_point(pos)

    def test_mobility_fraction(self):
        gen = RandomWalkGenerator(BOUNDS, 100, seed=2)
        assert len(gen.tick(0.0)) == 0
        assert len(gen.tick(0.37)) == 37

    def test_steps_are_local(self):
        gen = RandomWalkGenerator(BOUNDS, 20, step_fraction=0.005, seed=3)
        before = gen.positions()
        moved = gen.tick(1.0)
        diag = (BOUNDS.width ** 2 + BOUNDS.height ** 2) ** 0.5
        for eid, pos in moved.items():
            assert dist(before[eid], pos) < 0.1 * diag

    def test_deterministic(self):
        a = RandomWalkGenerator(BOUNDS, 30, seed=4)
        b = RandomWalkGenerator(BOUNDS, 30, seed=4)
        assert a.positions() == b.positions()
        assert a.tick(0.5) == b.tick(0.5)

    def test_rejects_bad_mobility(self):
        gen = RandomWalkGenerator(BOUNDS, 5, seed=0)
        with pytest.raises(ValueError):
            gen.tick(-0.1)


class TestWaypoint:
    def test_travel_reaches_target_then_pauses(self):
        gen = WaypointGenerator(BOUNDS, 1, speed_classes=(0.5,), pause_ticks=2, seed=5)
        eid = gen.ids()[0]
        seen = [gen.position_of(eid)]
        for _ in range(30):
            gen.tick(1.0)
            seen.append(gen.position_of(eid))
        assert all(BOUNDS.contains_point(p) for p in seen)
        # with a pause, consecutive identical positions must occur
        assert any(a == b for a, b in zip(seen, seen[1:]))

    def test_speed_bound(self):
        gen = WaypointGenerator(BOUNDS, 10, speed_classes=(0.01,), seed=6)
        diag = (BOUNDS.width ** 2 + BOUNDS.height ** 2) ** 0.5
        before = gen.positions()
        after = gen.tick(1.0)
        for eid, pos in after.items():
            assert dist(before[eid], pos) <= 0.01 * diag + 1e-9


class TestHotspot:
    def test_skew(self):
        """Most mass concentrates near the hotspot centres."""
        gen = HotspotGenerator(BOUNDS, 200, hotspots=3, spread_fraction=0.02, seed=7)
        near = 0
        for pos in gen.positions().values():
            if min(dist(pos, c) for c in gen.centres) < 0.1 * 1414.0:
                near += 1
        assert near > 150

    def test_needs_a_hotspot(self):
        with pytest.raises(ValueError):
            HotspotGenerator(BOUNDS, 10, hotspots=0)

    def test_migration_changes_home(self):
        gen = HotspotGenerator(BOUNDS, 50, hotspots=4, migrate_prob=0.5, seed=8)
        before = dict(gen._home)
        for _ in range(10):
            gen.tick(1.0)
        assert gen._home != before


class TestTrace:
    def _workload(self) -> Workload:
        spec = WorkloadSpec(
            num_objects=40, num_queries=5, object_mobility=0.3,
            query_mobility=0.2, timestamps=4, seed=9, bounds=BOUNDS,
        )
        return Workload(spec)

    def test_record_and_replay_match_live_run(self):
        from .conftest import make_monitor

        trace = Trace.record(self._workload())
        live = make_monitor("lu+pi", grid_cells=10)
        self._workload().load_into(live)
        for batch in self._workload().batches():
            live.process(batch)
        replayed = make_monitor("lu+pi", grid_cells=10)
        trace.replay(replayed)
        assert live.results() == replayed.results()

    def test_json_roundtrip(self):
        trace = Trace.record(self._workload())
        buf = io.StringIO()
        trace.to_json(buf)
        buf.seek(0)
        loaded = Trace.from_json(buf)
        assert loaded.bounds == trace.bounds
        assert loaded.objects == trace.objects
        assert loaded.queries == trace.queries
        assert loaded.batches == trace.batches

    def test_file_roundtrip(self, tmp_path):
        trace = Trace.record(self._workload())
        path = tmp_path / "trace.json"
        trace.save(str(path))
        loaded = Trace.load(str(path))
        assert loaded.batches == trace.batches

    def test_deletion_encoding(self):
        trace = Trace(bounds=BOUNDS, objects={1: Point(1.0, 2.0)})
        trace.batches = [[ObjectUpdate(1, None), QueryUpdate(5, Point(3.0, 4.0))]]
        buf = io.StringIO()
        trace.to_json(buf)
        buf.seek(0)
        loaded = Trace.from_json(buf)
        assert loaded.batches[0][0] == ObjectUpdate(1, None)
        assert loaded.batches[0][1] == QueryUpdate(5, Point(3.0, 4.0))

    def test_replay_into_oracle(self):
        trace = Trace.record(self._workload())
        oracle = BruteForceMonitor()
        trace.replay(oracle)
        assert len(oracle.positions) == 40

    def test_cli_record_and_replay(self, tmp_path, capsys):
        from repro.mobility.trace import main

        path = tmp_path / "trace.json"
        assert main([
            "record", str(path), "--objects", "60", "--queries", "5",
            "--timestamps", "3", "--seed", "4",
        ]) == 0
        assert "recorded 60 objects" in capsys.readouterr().out
        assert main(["replay", str(path), "--grid-cells", "16"]) == 0
        out = capsys.readouterr().out
        assert "replayed 3 batches" in out
        assert "final result sizes" in out


class TestFreeSpaceDrivesMonitor:
    @pytest.mark.parametrize(
        "generator_cls", [RandomWalkGenerator, WaypointGenerator, HotspotGenerator]
    )
    def test_monitor_correct_under_model(self, generator_cls):
        from .test_exactness import Stream, check

        gen = generator_cls(BOUNDS, 40, seed=11)
        rng = random.Random(12)
        batches = [[ObjectUpdate(eid, pos) for eid, pos in gen.positions().items()]]
        batches.append([QueryUpdate(qid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
                        for qid in range(10_000, 10_006)])
        batches += [[ObjectUpdate(eid, pos) for eid, pos in gen.tick(0.4).items()]
                    for _ in range(25)]
        check("lu+pi", Stream(None, batches, grid_cells=10, bounds=BOUNDS))
