"""StripePlan unit tests: stripe math, ownership, halo accounting."""

from __future__ import annotations

import random

import pytest

from repro.core.stats import StatCounters
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.grid.index import GridIndex
from repro.shard.plan import StripePlan

from .conftest import TEST_BOUNDS, random_point


class TestStripeMath:
    @pytest.mark.parametrize("n,k", [(12, 1), (12, 2), (12, 5), (12, 12), (7, 3)])
    def test_starts_partition_all_columns(self, n, k):
        plan = StripePlan(TEST_BOUNDS, n, k)
        assert plan.starts[0] == 0 and plan.starts[-1] == n
        cols = [c for s in range(k) for c in plan.columns_of(s)]
        assert cols == list(range(n))
        # Balanced: stripe widths differ by at most one column.
        widths = [len(plan.columns_of(s)) for s in range(k)]
        assert max(widths) - min(widths) <= 1

    def test_invalid_shard_counts(self):
        with pytest.raises(ValueError):
            StripePlan(TEST_BOUNDS, 12, 0)
        with pytest.raises(ValueError):
            StripePlan(TEST_BOUNDS, 4, 5)

    def test_column_of_matches_grid(self):
        grid = GridIndex(TEST_BOUNDS, 12, StatCounters())
        plan = StripePlan(TEST_BOUNDS, 12, 5)
        rng = random.Random(3)
        pts = [random_point(rng) for _ in range(500)]
        # Exact cell-boundary and space-edge coordinates too.
        w = TEST_BOUNDS.width / 12
        pts += [Point(TEST_BOUNDS.xmin + i * w, 500.0) for i in range(13)]
        for p in pts:
            assert plan.column_of(p[0]) == grid.cell_coords(p)[0], p

    def test_stripe_rects_tile_the_space(self):
        plan = StripePlan(TEST_BOUNDS, 12, 5)
        rects = [plan.stripe_rect(s) for s in range(5)]
        assert rects[0].xmin == TEST_BOUNDS.xmin
        assert rects[-1].xmax == TEST_BOUNDS.xmax
        for left, right in zip(rects, rects[1:]):
            assert left.xmax == right.xmin
        for rect in rects:
            assert (rect.ymin, rect.ymax) == (TEST_BOUNDS.ymin, TEST_BOUNDS.ymax)

    def test_boundaries_are_interior_stripe_edges(self):
        plan = StripePlan(TEST_BOUNDS, 12, 4)
        edges = plan.boundaries()
        assert len(edges) == 3
        assert edges == [plan.stripe_rect(s).xmin for s in range(1, 4)]


class TestOwnership:
    def test_boundary_point_owned_by_right_stripe(self):
        # Grid truncation: a point exactly on an interior stripe edge
        # belongs to the stripe starting there.
        plan = StripePlan(TEST_BOUNDS, 12, 4)
        for k, x in enumerate(plan.boundaries(), start=1):
            assert plan.owner_of(Point(x, 10.0)) == k
            assert plan.owner_of(Point(x - 1e-9, 10.0)) == k - 1

    def test_space_edges_clamp(self):
        plan = StripePlan(TEST_BOUNDS, 12, 4)
        assert plan.owner_of(Point(TEST_BOUNDS.xmin, 0.0)) == 0
        # xmax truncates to column n, clamped into the last stripe —
        # identical to GridIndex.cell_coords.
        assert plan.owner_of(Point(TEST_BOUNDS.xmax, 0.0)) == plan.shards - 1

    def test_single_shard_owns_everything(self):
        plan = StripePlan(TEST_BOUNDS, 12, 1)
        rng = random.Random(5)
        assert all(plan.owner_of(random_point(rng)) == 0 for _ in range(100))

    def test_narrow_grid_one_column_per_shard(self):
        plan = StripePlan(Rect(0.0, 0.0, 8.0, 8.0), 8, 8)
        for col in range(8):
            assert plan.owner_of(Point(col + 0.5, 4.0)) == col


class TestHalo:
    def test_crossing_move_charged_to_both_shards(self):
        plan = StripePlan(TEST_BOUNDS, 12, 4)
        a, b = Point(10.0, 10.0), Point(990.0, 10.0)
        counts = plan.halo_counts([(1, a, b)])
        assert counts == {0: 1, 3: 1}

    def test_insert_and_delete_are_not_halo_traffic(self):
        plan = StripePlan(TEST_BOUNDS, 12, 4)
        assert plan.halo_counts(
            [(1, None, Point(10.0, 10.0)), (2, Point(990.0, 0.0), None)]
        ) == {}

    def test_intra_stripe_move_is_free(self):
        plan = StripePlan(TEST_BOUNDS, 12, 4)
        assert plan.halo_counts([(1, Point(10.0, 1.0), Point(40.0, 900.0))]) == {}

    def test_halo_counts_accumulate(self):
        plan = StripePlan(TEST_BOUNDS, 12, 2)
        moves = [
            (1, Point(10.0, 0.0), Point(990.0, 0.0)),
            (2, Point(990.0, 5.0), Point(10.0, 5.0)),
            (3, Point(20.0, 9.0), Point(30.0, 9.0)),
        ]
        assert plan.halo_counts(moves) == {0: 2, 1: 2}
