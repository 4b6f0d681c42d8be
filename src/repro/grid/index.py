"""The uniform grid index over moving objects.

The paper indexes objects and queries with a regular grid because more
complicated structures are too expensive to maintain under a high rate of
location updates (Section 1).  The grid stores every object's current
position, maps positions to cells in O(1), and exposes the geometric cell
enumerations the monitor needs (cells in a rectangle, cells intersecting
a pie-region, cells intersecting a circle).

Two storage layers coexist:

* ``Cell`` objects (lazily materialized — an empty grid allocates none)
  carry the per-cell query book-keeping and object id sets the scalar
  algorithms walk.
* A NumPy-backed position store (contiguous ``oid``/``x``/``y``/flat-cell
  arrays plus a CSR bucketing of object slots by cell) feeds the
  vectorized kernels in :mod:`repro.perf.kernels`.

The geometric enumerations are one scalar walk each, O(1) work per grid
row: a pie or a disk is convex, so it meets every row in one contiguous
run of cells.  They have no NumPy twin: an array version costs more per
call than the walk below some 30 (disk) to 50 (pie) rows, and the pies
and disks the monitor enumerates span a handful (DESIGN.md §6, "Dual
kernels").
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as _np

from repro.core.stats import StatCounters
from repro.obs.trace import NULL_TRACER
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sector import sector_boundary_dirs
from repro.grid.cell import Cell

_EMPTY_SET: frozenset[int] = frozenset()


class GridIndex:
    """A uniform grid over a square data space.

    Parameters
    ----------
    bounds:
        The data space.  Objects outside it are clamped to the border
        cell (their exact positions are still kept).
    cells_per_axis:
        Grid resolution; the paper uses 128 x 128.
    stats:
        Optional shared operation counters.
    """

    def __init__(
        self,
        bounds: Rect,
        cells_per_axis: int = 128,
        stats: StatCounters | None = None,
    ):
        if cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")
        if bounds.width <= 0 or bounds.height <= 0:
            raise ValueError("grid bounds must have positive area")
        self.bounds = bounds
        self.n = cells_per_axis
        self.stats = stats if stats is not None else StatCounters()
        #: Span tracer shared with the owning monitor (the disabled
        #: :data:`~repro.obs.trace.NULL_TRACER` unless observability is
        #: on); NN searches and CSR rebuilds emit spans through it.
        self.tracer = NULL_TRACER
        self._cell_w = bounds.width / cells_per_axis
        self._cell_h = bounds.height / cells_per_axis
        #: Lazily materialized cells, keyed by row-major flat index.
        self._cells: dict[int, Cell] = {}
        self.positions: dict[int, Point] = {}
        #: Whether searches may dispatch to the vectorized kernels.
        #: Test seam only: the differential suites clear it to pin every
        #: dispatch to the scalar reference twins.
        self.vector_enabled = True
        self._slot: dict[int, int] = {}
        self._size = 0
        cap = 64
        self._oid_arr = _np.empty(cap, dtype=_np.int64)
        self._px = _np.empty(cap, dtype=_np.float64)
        self._py = _np.empty(cap, dtype=_np.float64)
        self._flat_arr = _np.empty(cap, dtype=_np.int64)
        self._csr_dirty = True
        self._csr_order: Optional[object] = None
        self._csr_indptr: Optional[object] = None
        self._pie_flags = _np.zeros(cells_per_axis * cells_per_axis, dtype=bool)
        #: Set by bulk_move_objects instead of touching per-cell object
        #: sets; the first reader pays one rebuild from the CSR.
        self._cell_objects_stale = False

    # ------------------------------------------------------------------
    # Cell addressing
    # ------------------------------------------------------------------
    def cell_coords(self, p: Point) -> tuple[int, int]:
        """Grid coordinates of the cell containing ``p`` (clamped to bounds)."""
        cx = int((p[0] - self.bounds.xmin) / self._cell_w)
        cy = int((p[1] - self.bounds.ymin) / self._cell_h)
        if cx < 0:
            cx = 0
        elif cx >= self.n:
            cx = self.n - 1
        if cy < 0:
            cy = 0
        elif cy >= self.n:
            cy = self.n - 1
        return cx, cy

    def cell_rect(self, cx: int, cy: int) -> Rect:
        """Extent of the cell at ``(cx, cy)``, without materializing it."""
        cell = self._cells.get(cy * self.n + cx)
        if cell is not None:
            return cell.rect
        return Rect(
            self.bounds.xmin + cx * self._cell_w,
            self.bounds.ymin + cy * self._cell_h,
            self.bounds.xmin + (cx + 1) * self._cell_w,
            self.bounds.ymin + (cy + 1) * self._cell_h,
        )

    def _materialize(self, flat: int) -> Cell:
        cell = self._cells.get(flat)
        if cell is None:
            cy, cx = divmod(flat, self.n)
            cell = Cell(cx, cy, self.cell_rect(cx, cy))
            cell.flat = flat
            cell.pie_flag_hook = self._on_pie_flag
            self._cells[flat] = cell
            self.stats.cells_materialized += 1
        return cell

    def _on_pie_flag(self, flat: int, registered: bool) -> None:
        self._pie_flags[flat] = registered

    def cell(self, cx: int, cy: int) -> Cell:
        """The cell at grid coordinates ``(cx, cy)``."""
        if self._cell_objects_stale:
            self._sync_cell_objects()
        return self._materialize(cy * self.n + cx)

    def cell_at(self, p: Point) -> Cell:
        """The cell containing point ``p``."""
        if self._cell_objects_stale:
            self._sync_cell_objects()
        cx, cy = self.cell_coords(p)
        return self._materialize(cy * self.n + cx)

    def peek_cell(self, cx: int, cy: int) -> Optional[Cell]:
        """The cell at ``(cx, cy)`` if materialized, else ``None``."""
        if self._cell_objects_stale:
            self._sync_cell_objects()
        return self._cells.get(cy * self.n + cx)

    def objects_in_cell(self, cx: int, cy: int) -> frozenset[int] | set[int]:
        """Object ids in a cell; empty (and allocation-free) if never touched."""
        if self._cell_objects_stale:
            self._sync_cell_objects()
        cell = self._cells.get(cy * self.n + cx)
        return cell.objects if cell is not None else _EMPTY_SET

    def all_cells(self) -> Iterator[Cell]:
        """Every cell of the grid (row-major).

        Materializes the full grid — meant for validation and tests, not
        hot paths; use :meth:`materialized_cells` to walk only cells that
        carry state.
        """
        if self._cell_objects_stale:
            self._sync_cell_objects()
        for flat in range(self.n * self.n):
            yield self._materialize(flat)

    def materialized_cells(self) -> Iterator[Cell]:
        """Only the cells that have been materialized (row-major order)."""
        if self._cell_objects_stale:
            self._sync_cell_objects()
        for flat in sorted(self._cells):
            yield self._cells[flat]

    @property
    def materialized_cell_count(self) -> int:
        """How many cells have been allocated so far."""
        return len(self._cells)

    # ------------------------------------------------------------------
    # Object maintenance
    # ------------------------------------------------------------------
    def insert_object(self, oid: int, p: Point) -> Cell:
        """Insert a new object; returns the cell it landed in."""
        if oid in self.positions:
            raise KeyError(f"object {oid} already present; use move_object")
        self.positions[oid] = p
        cell = self.cell_at(p)
        cell.objects.add(oid)
        slot = self._size
        if slot == len(self._oid_arr):
            self._grow()
        self._oid_arr[slot] = oid
        self._px[slot] = p[0]
        self._py[slot] = p[1]
        self._flat_arr[slot] = cell.flat
        self._slot[oid] = slot
        self._size = slot + 1
        self._csr_dirty = True
        return cell

    def _grow(self) -> None:
        new_cap = len(self._oid_arr) * 2
        for name in ("_oid_arr", "_px", "_py", "_flat_arr"):
            old = getattr(self, name)
            grown = _np.empty(new_cap, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def delete_object(self, oid: int) -> tuple[Point, Cell]:
        """Remove an object; returns its last position and cell."""
        p = self.positions.pop(oid)
        cell = self.cell_at(p)
        cell.objects.discard(oid)
        slot = self._slot.pop(oid)
        last = self._size - 1
        if slot != last:
            moved = int(self._oid_arr[last])
            self._oid_arr[slot] = moved
            self._px[slot] = self._px[last]
            self._py[slot] = self._py[last]
            self._flat_arr[slot] = self._flat_arr[last]
            self._slot[moved] = slot
        self._size = last
        self._csr_dirty = True
        return p, cell

    def move_object(self, oid: int, new_pos: Point) -> tuple[Point, Cell, Cell]:
        """Update an object's position; returns (old_pos, old_cell, new_cell)."""
        old_pos = self.positions[oid]
        old_cell = self.cell_at(old_pos)
        new_cell = self.cell_at(new_pos)
        if old_cell is not new_cell:
            old_cell.objects.discard(oid)
            new_cell.objects.add(oid)
        self.positions[oid] = new_pos
        slot = self._slot[oid]
        self._px[slot] = new_pos[0]
        self._py[slot] = new_pos[1]
        if old_cell is not new_cell:
            # In-cell moves keep the CSR bucketing valid: kernels
            # gather coordinates through the order array, never from
            # a coordinate copy.
            self._flat_arr[slot] = new_cell.flat
            self._csr_dirty = True
        return old_pos, old_cell, new_cell

    def bulk_move_objects(
        self, pairs: list[tuple[int, Point]]
    ) -> list[tuple[int, Point, Point]]:
        """Apply many location updates at once; returns the real moves.

        Exactly equivalent to calling :meth:`move_object` per pair in
        order and keeping the ``(oid, old_pos, new_pos)`` of each pair
        whose position actually changed — but the coordinate writes and
        cell re-bucketing are done in a handful of array operations, and
        only cell-crossing objects pay any per-object Python work.

        The caller guarantees every oid is present and appears at most
        once (``CRNNMonitor.process`` flushes a pending run whenever an
        oid repeats within a batch).
        """
        if len(pairs) < 16:
            moves = []
            for oid, p in pairs:
                old_pos, _, _ = self.move_object(oid, p)
                if old_pos != p:
                    moves.append((oid, old_pos, p))
            return moves
        with self.tracer.span("grid.bulk_move", pairs=len(pairs)):
            return self._bulk_move_vector(pairs)

    def _bulk_move_vector(
        self, pairs: list[tuple[int, Point]]
    ) -> list[tuple[int, Point, Point]]:
        m = len(pairs)
        slots = _np.fromiter(
            (self._slot[oid] for oid, _ in pairs), _np.int64, count=m
        )
        xs = _np.fromiter((p[0] for _, p in pairs), _np.float64, count=m)
        ys = _np.fromiter((p[1] for _, p in pairs), _np.float64, count=m)
        cx = _np.clip(
            ((xs - self.bounds.xmin) / self._cell_w).astype(_np.int64), 0, self.n - 1
        )
        cy = _np.clip(
            ((ys - self.bounds.ymin) / self._cell_h).astype(_np.int64), 0, self.n - 1
        )
        new_flat = cy * self.n + cx
        old_flat = self._flat_arr[slots]
        if (new_flat != old_flat).any():
            self._csr_dirty = True
            # Per-cell object sets are NOT updated here: the first
            # reader (any cell accessor) pays one rebuild from the CSR,
            # which is far cheaper than per-object set churn.
            self._cell_objects_stale = True
        self._px[slots] = xs
        self._py[slots] = ys
        self._flat_arr[slots] = new_flat
        moves = []
        positions = self.positions
        for oid, p in pairs:
            old = positions[oid]
            if old != p:
                moves.append((oid, old, p))
                positions[oid] = p
        return moves

    def _sync_cell_objects(self) -> None:
        """Rebuild every materialized cell's object set from the CSR.

        Runs at most once per bulk-move batch, on the first cell read;
        afterwards the per-cell sets are exact again and the incremental
        single-update maintenance takes over.
        """
        self._cell_objects_stale = False
        self.ensure_csr()
        order_oids = self._oid_arr[self._csr_order].tolist()
        indptr = self._csr_indptr
        for cell in self._cells.values():
            if cell.objects:
                cell.objects.clear()
        counts = _np.diff(indptr)
        for flat in _np.nonzero(counts)[0].tolist():
            cell = self._cells.get(flat)
            if cell is None:
                cell = self._materialize(flat)
            cell.objects = set(order_oids[indptr[flat] : indptr[flat + 1]])

    def position(self, oid: int) -> Point:
        """Current position of object ``oid``."""
        return self.positions[oid]

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, oid: int) -> bool:
        return oid in self.positions

    # ------------------------------------------------------------------
    # CSR bucketing (vectorized kernels)
    # ------------------------------------------------------------------
    @property
    def csr_fresh(self) -> bool:
        """Whether the CSR bucketing matches the current object layout."""
        return not self._csr_dirty and self._csr_order is not None

    def ensure_csr(self) -> None:
        """(Re)build the cell -> object-slot CSR bucketing if stale.

        O(n) in the object count up to 256 cells per axis: the slots are
        stable-sorted by cell id cast to the narrowest unsigned type that
        holds every id — ``uint8`` or ``uint16`` there, where NumPy's
        stable sort is a radix sort; wider grids get ``uint32`` and a
        comparison sort.  A stable sort is unique, so the order is the
        one an ``int64`` sort gives at any width.  Call once per batch,
        not per update; the single-update paths simply leave it stale
        and the searches fall back to the scalar kernels.
        """
        if self.csr_fresh:
            return
        with self.tracer.span("grid.csr_rebuild", objects=self._size):
            flats = self._flat_arr[: self._size]
            key = flats.astype(_np.min_scalar_type(self.n * self.n - 1))
            self._csr_order = _np.argsort(key, kind="stable")
            counts = _np.bincount(flats, minlength=self.n * self.n)
            indptr = _np.empty(self.n * self.n + 1, dtype=_np.int64)
            indptr[0] = 0
            _np.cumsum(counts, out=indptr[1:])
            self._csr_indptr = indptr
            self._csr_dirty = False
            self.stats.csr_rebuilds += 1

    # ------------------------------------------------------------------
    # Geometric cell enumerations
    # ------------------------------------------------------------------
    # -- pie-region enumeration ----------------------------------------
    def cells_intersecting_pie(self, q: Point, sector: int, radius: float) -> Iterator[Cell]:
        """Cells intersecting the pie of ``sector`` around ``q``.

        ``radius`` may be ``inf``, in which case the pie is the whole
        sector clipped to the data space (the paper's unbounded
        pie-region for an empty partition).

        Walks :meth:`pie_row_intervals`: O(cells yielded) with O(1) work
        per row, instead of clipping every cell in the bounding box.  The
        intervals are padded by a hair so borderline cells are over-
        rather than under-registered (over-registration is always safe
        for monitoring).

        The yielded cells are meant for pie-region bookkeeping
        (``pie_queries``); their ``objects`` sets are synchronized
        lazily, so read object membership through :meth:`cell` /
        :meth:`objects_in_cell` instead.
        """
        for cy, cx0, cx1 in self.pie_row_intervals(q, sector, radius):
            base = cy * self.n
            for cx in range(cx0, cx1 + 1):
                yield self._materialize(base + cx)

    def pie_row_intervals(
        self, q: Point, sector: int, radius: float
    ) -> Iterator[tuple[int, int, int]]:
        """Row intervals ``(cy, cx0, cx1)`` of cells meeting the pie.

        What :meth:`cells_intersecting_pie` walks, and what the
        vectorized ``initCRNN`` kernel gathers CSR slices from without
        materializing any ``Cell``.

        The pie (wedge ∩ disk) is convex, so every grid row meets it in
        one contiguous x-interval.  Its ends are the extremes of what
        falls in the row's strip: the pie's extreme points, the boundary
        rays' crossings of the strip borders, and the arc's crossings of
        the strip borders inside the closed wedge.
        """
        bounds = self.bounds
        if math.isinf(radius):
            radius = bounds.maxdist(q)
        qx, qy = q
        (d0x, d0y), (d1x, d1y) = sector_boundary_dirs(sector)
        # Extreme points of the pie: apex, the two arc endpoints, and —
        # for the sectors whose angular range contains 90 or 270 degrees
        # — the arc's topmost/bottommost point (these angles fall
        # *inside* sectors 1 and 4 rather than on a boundary ray).
        extremes = [
            (qx, qy),
            (qx + radius * d0x, qy + radius * d0y),
            (qx + radius * d1x, qy + radius * d1y),
        ]
        if sector == 1:
            extremes.append((qx, qy + radius))
        elif sector == 4:
            extremes.append((qx, qy - radius))
        pad = 1e-9 * (radius + 1.0)
        y_lo = max(bounds.ymin, min(p[1] for p in extremes) - pad)
        y_hi = min(bounds.ymax, max(p[1] for p in extremes) + pad)
        if y_lo > y_hi:
            return
        _, cy0 = self.cell_coords(Point(qx, y_lo))
        _, cy1 = self.cell_coords(Point(qx, y_hi))
        # Boundary rays as (dx, y extent); a horizontal ray crosses no
        # strip border.
        rays = [(dx, dy * radius) for dx, dy in ((d0x, d0y), (d1x, d1y)) if dy * radius != 0.0]
        r_sq = radius * radius
        xmin, xmax, ymin = bounds.xmin, bounds.xmax, bounds.ymin
        cell_w, cell_h, last = self._cell_w, self._cell_h, self.n - 1
        for cy in range(cy0, cy1 + 1):
            y0 = ymin + cy * cell_h
            y1 = y0 + cell_h
            # Region extreme points inside the strip.
            xs = [px for px, py in extremes if y0 - pad <= py <= y1 + pad]
            # Ray-segment crossings of the strip borders.
            for dx, sy in rays:
                for yb in (y0, y1):
                    t = (yb - qy) / sy
                    if 0.0 <= t <= 1.0:
                        xs.append(qx + t * radius * dx)
            # Arc crossings of the strip borders (kept only inside the
            # closed wedge).
            for yb in (y0, y1):
                dyq = yb - qy
                m = r_sq - dyq * dyq
                if m >= 0.0:
                    s = math.sqrt(m)
                    for px in (qx - s, qx + s):
                        vx = px - qx
                        if (d0x * dyq - d0y * vx) >= -pad and (d1x * dyq - d1y * vx) <= pad:
                            xs.append(px)
            if not xs:
                continue
            xa = max(xmin, min(xs) - pad)
            xb = min(xmax, max(xs) + pad)
            if xa > xb:
                continue
            # ``cell_coords`` of (xa, y0) and (xb, y0); xa >= xmin already.
            yield cy, min(int((xa - xmin) / cell_w), last), min(int((xb - xmin) / cell_w), last)

    # -- disk enumeration ----------------------------------------------
    def cells_intersecting_circle(self, center: Point, radius: float) -> Iterator[Cell]:
        """Cells intersecting the closed disk around ``center``.

        Walks :meth:`circle_row_intervals`: O(cells yielded) total work.
        """
        if self._cell_objects_stale:
            self._sync_cell_objects()
        for cy, cx0, cx1 in self.circle_row_intervals(center, radius):
            base = cy * self.n
            for cx in range(cx0, cx1 + 1):
                yield self._materialize(base + cx)

    def circle_row_intervals(
        self, center: Point, radius: float
    ) -> Iterator[tuple[int, int, int]]:
        """Row intervals ``(cy, cx0, cx1)`` of cells meeting the disk.

        What :meth:`cells_intersecting_circle` walks, and what the
        vectorized NN kernels gather CSR slices from without
        materializing (or touching) any ``Cell``.  Per row the disk's
        x-extent is widest at the y nearest the centre.
        """
        bounds = self.bounds
        qx, qy = center
        y_lo = max(bounds.ymin, qy - radius)
        y_hi = min(bounds.ymax, qy + radius)
        if y_lo > y_hi:
            return
        _, cy0 = self.cell_coords(Point(qx, y_lo))
        _, cy1 = self.cell_coords(Point(qx, y_hi))
        r_sq = radius * radius
        xmin, xmax, ymin = bounds.xmin, bounds.xmax, bounds.ymin
        cell_w, cell_h, last = self._cell_w, self._cell_h, self.n - 1
        for cy in range(cy0, cy1 + 1):
            y0 = ymin + cy * cell_h
            y1 = y0 + cell_h
            y_star = qy if y0 <= qy <= y1 else (y0 if abs(y0 - qy) < abs(y1 - qy) else y1)
            m = r_sq - (y_star - qy) ** 2
            if m < 0.0:
                continue
            half = math.sqrt(m)
            xa = max(xmin, qx - half)
            xb = min(xmax, qx + half)
            if xa > xb:
                continue
            # ``cell_coords`` of (xa, y0) and (xb, y0); xa >= xmin already.
            yield cy, min(int((xa - xmin) / cell_w), last), min(int((xb - xmin) / cell_w), last)
