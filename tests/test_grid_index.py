"""Tests for the uniform grid index and its geometric cell enumerations."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.wedge import mindist_rect_in_sector
from repro.grid.index import GridIndex

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)

coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
points = st.builds(Point, coords, coords)


class TestConstruction:
    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            GridIndex(BOUNDS, 0)

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            GridIndex(Rect(0, 0, 0, 10), 4)

    def test_cell_rects_tile_the_bounds(self):
        g = GridIndex(BOUNDS, 4)
        total = sum(c.rect.area for c in g.all_cells())
        assert math.isclose(total, BOUNDS.area)


class TestAddressing:
    def test_cell_coords_basic(self):
        g = GridIndex(BOUNDS, 10)
        assert g.cell_coords(Point(5.0, 5.0)) == (0, 0)
        assert g.cell_coords(Point(995.0, 995.0)) == (9, 9)

    def test_boundary_points_clamped(self):
        g = GridIndex(BOUNDS, 10)
        assert g.cell_coords(Point(1000.0, 1000.0)) == (9, 9)
        assert g.cell_coords(Point(-5.0, 2000.0)) == (0, 9)

    @given(points)
    def test_cell_at_contains_point(self, p):
        g = GridIndex(BOUNDS, 7)
        assert g.cell_at(p).rect.contains_point(p)


class TestObjectMaintenance:
    def test_insert_move_delete_roundtrip(self):
        g = GridIndex(BOUNDS, 8)
        g.insert_object(1, Point(10.0, 10.0))
        assert 1 in g and len(g) == 1
        assert 1 in g.cell_at(Point(10.0, 10.0)).objects
        old, old_cell, new_cell = g.move_object(1, Point(990.0, 990.0))
        assert old == Point(10.0, 10.0)
        assert 1 not in old_cell.objects and 1 in new_cell.objects
        pos, cell = g.delete_object(1)
        assert pos == Point(990.0, 990.0)
        assert 1 not in cell.objects and len(g) == 0

    def test_duplicate_insert_rejected(self):
        g = GridIndex(BOUNDS, 8)
        g.insert_object(1, Point(1.0, 1.0))
        with pytest.raises(KeyError):
            g.insert_object(1, Point(2.0, 2.0))

    def test_move_within_same_cell(self):
        g = GridIndex(BOUNDS, 2)
        g.insert_object(5, Point(10.0, 10.0))
        _, old_cell, new_cell = g.move_object(5, Point(20.0, 20.0))
        assert old_cell is new_cell
        assert 5 in new_cell.objects


class TestCellsInRect:
    def test_full_cover(self):
        g = GridIndex(BOUNDS, 4)
        assert len(list(g.cells_in_rect(BOUNDS))) == 16

    def test_single_cell(self):
        g = GridIndex(BOUNDS, 4)
        cells = list(g.cells_in_rect(Rect(10, 10, 20, 20)))
        assert len(cells) == 1 and cells[0].cx == 0 and cells[0].cy == 0


radii = st.one_of(
    st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
    st.just(math.inf),
)

#: Grid resolutions: small ones, and the shipped 128 (walks of 100-plus
#: rows).
resolutions = st.sampled_from([3, 7, 16, 128])

#: Points anywhere, or exactly on a cell corner of the 128-cell grid (and
#: so of the 16-cell one; the cell width 7.8125 is exact in binary).
corner_points = st.one_of(
    points,
    st.builds(
        Point,
        st.integers(min_value=0, max_value=128).map(lambda i: i * 7.8125),
        st.integers(min_value=0, max_value=128).map(lambda i: i * 7.8125),
    ),
)


def _check_against_reference(g, fast, mindist, radius):
    """Every cell clearly within ``radius`` of the region is enumerated,
    every cell clearly beyond it is not (``mindist(rect)`` is the exact
    distance from the region's anchor to the cell)."""
    tol = 1e-6 * (1.0 + (0.0 if math.isinf(radius) else radius))
    for cy in range(g.n):
        for cx in range(g.n):
            d = mindist(g.cell_rect(cx, cy))
            if d < radius - tol:
                assert (cx, cy) in fast, f"missing cell {(cx, cy)} (d={d}, r={radius})"
            # With an infinite radius, cells with no sector overlap may
            # still be swept up by the row-interval padding; only the
            # clearly-overlapping cells are required (above).
            elif not math.isinf(radius) and d > radius + tol:
                assert (cx, cy) not in fast, f"extra cell {(cx, cy)} (d={d}, r={radius})"


class TestPieEnumeration:
    """The O(result) row-interval pie enumeration must agree with the
    clip-based definition except exactly on knife-edge boundaries."""

    @settings(max_examples=120, deadline=None)
    @given(corner_points, st.integers(min_value=0, max_value=5), radii, resolutions)
    @example(Point(500.0, 500.0), 1, math.inf, 128)
    @example(Point(3.0, 996.0), 5, math.inf, 128)
    @example(Point(507.8125, 492.1875), 4, 900.0, 128)
    def test_matches_clip_reference(self, q, sector, radius, n):
        g = GridIndex(BOUNDS, n)
        fast = {(c.cx, c.cy) for c in g.cells_intersecting_pie(q, sector, radius)}
        _check_against_reference(
            g, fast, lambda rect: mindist_rect_in_sector(q, rect, sector), radius
        )

    def test_zero_radius_yields_apex_cell(self):
        g = GridIndex(BOUNDS, 10)
        q = Point(555.0, 555.0)
        cells = list(g.cells_intersecting_pie(q, 2, 0.0))
        assert g.cell_at(q) in cells


class TestDiskEnumeration:
    @settings(max_examples=120, deadline=None)
    @given(corner_points, radii, resolutions)
    @example(Point(500.0, 500.0), math.inf, 128)
    @example(Point(0.0, 1000.0), 1200.0, 128)
    @example(Point(507.8125, 492.1875), 7.8125, 128)
    def test_matches_mindist_reference(self, center, radius, n):
        g = GridIndex(BOUNDS, n)
        fast = {(c.cx, c.cy) for c in g.cells_intersecting_circle(center, radius)}
        _check_against_reference(g, fast, lambda rect: rect.mindist(center), radius)


class TestCsrRebuild:
    """``ensure_csr`` sorts cell ids narrowed to the smallest unsigned type
    (uint8 / uint16 / uint32); its CSR must be the one an int64 stable
    argsort and a bincount give."""

    @staticmethod
    def _assert_int64_csr(g):
        g.ensure_csr()
        assert g.csr_fresh
        flats = g._flat_arr[: g._size].astype(np.int64)
        order = np.argsort(flats, kind="stable")
        indptr = np.zeros(g.n * g.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(flats, minlength=g.n * g.n), out=indptr[1:])
        np.testing.assert_array_equal(g._csr_order, order)
        np.testing.assert_array_equal(g._csr_indptr, indptr)

    @pytest.mark.parametrize("n", [1, 16, 128, 256, 257])
    def test_matches_int64_sort(self, n):
        rng = random.Random(n)
        g = GridIndex(BOUNDS, n)
        self._assert_int64_csr(g)  # empty grid
        corners = [Point(x, y) for x in (0.0, 1000.0) for y in (0.0, 1000.0)]
        pts = corners + [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(600)]
        pts += pts[:50]  # coincident objects
        pts += [Point(999.0 + rng.random(), 999.0 + rng.random()) for _ in range(40)]  # a hot cell
        for oid, p in enumerate(pts):
            g.insert_object(oid, p)
        self._assert_int64_csr(g)
        for oid in rng.sample(range(len(pts)), 300):  # swap-removes reorder the slots
            g.delete_object(oid)
        for oid in rng.sample(sorted(g.positions), 100):
            g.move_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        self._assert_int64_csr(g)
        for oid in list(g.positions):
            g.delete_object(oid)
        self._assert_int64_csr(g)


class TestStats:
    def test_shared_stats_object(self):
        from repro.core.stats import StatCounters

        stats = StatCounters()
        g = GridIndex(BOUNDS, 4, stats)
        assert g.stats is stats
