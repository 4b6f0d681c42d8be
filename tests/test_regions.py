"""Tests for monitoring-region introspection and Theorem 1.

Theorem 1 of the paper: no update outside the monitoring region (the
pie-regions plus circ-regions) can affect the query result.  We verify
the contrapositive on random update streams: whenever a result changes,
the update's old or new location was covered by the *pre-update*
monitoring region of that query.
"""

import math
import random

from repro.core.regions import CircRegion, MonitoringRegion, PieRegion
from repro.geometry.circle import Circle
from repro.geometry.point import Point

from .conftest import make_monitor
from .test_exactness import check, shape


class TestPieRegion:
    def test_contains_respects_radius_and_sector(self):
        pie = PieRegion(Point(0.0, 0.0), 0, 10.0)
        assert pie.contains(Point(5.0, 2.0))       # inside wedge, inside radius
        assert not pie.contains(Point(50.0, 2.0))  # beyond radius
        assert not pie.contains(Point(-5.0, 2.0))  # wrong sector

    def test_unbounded(self):
        pie = PieRegion(Point(0.0, 0.0), 0, math.inf)
        assert not pie.bounded
        assert pie.contains(Point(1e6, 2.0))


class TestCircRegion:
    def test_rnn_flag(self):
        circ = CircRegion(50, 0, 7, Circle(Point(0.0, 0.0), 5.0), None)
        assert circ.is_rnn
        circ2 = CircRegion(50, 0, 7, Circle(Point(0.0, 0.0), 5.0), 9)
        assert not circ2.is_rnn

    def test_contains_closed(self):
        circ = CircRegion(50, 0, 7, Circle(Point(0.0, 0.0), 5.0), None)
        assert circ.contains(Point(3.0, 4.0))  # on the perimeter
        assert not circ.contains(Point(3.1, 4.0))


class TestMonitoringRegionView:
    def test_structure(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(50, Point(150.0, 100.0))
        region = mon.monitoring_region(50)
        assert isinstance(region, MonitoringRegion)
        assert len(region.pies) == 6
        assert len(region.circs) == 1  # one non-empty sector
        assert region.circs[0].candidate == 1
        assert region.circs[0].is_rnn

    def test_rnn_circle_touches_query(self, variant):
        mon = make_monitor(variant)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_query(50, Point(150.0, 100.0))
        circ = mon.monitoring_region(50).circs[0]
        assert math.isclose(circ.circle.radius, 50.0)


class TestTheorem1:
    def test_result_changes_only_from_covered_updates(self, variant):
        # The harness asserts Theorem 1 after every tick of every
        # reference run; this stream is 150 single teleports.
        check(variant, shape("teleports-12"))

    def test_updates_far_outside_never_change_results(self, variant):
        """Direct reading of Theorem 1 with a far-away 'parking lot'."""
        mon = make_monitor(variant, grid_cells=10)
        mon.add_object(1, Point(100.0, 100.0))
        mon.add_object(2, Point(120.0, 100.0))
        # parked objects in the far corner, not near the query's regions
        for oid in (8, 9):
            mon.add_object(oid, Point(950.0 + oid, 950.0))
        mon.add_query(50, Point(150.0, 100.0))
        before = mon.rnn(50)
        region = mon.monitoring_region(50)
        rng = random.Random(3)
        for _ in range(50):
            p = Point(rng.uniform(900.0, 999.0), rng.uniform(900.0, 999.0))
            if region.covers(p):
                continue
            mon.update_object(8, p)
            assert mon.rnn(50) == before
