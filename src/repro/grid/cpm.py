"""Conceptual-partitioning (CPM) search machinery over the grid.

Mouratidis et al. (SIGMOD 2005) organise the cells around a query point
into *conceptual rectangles*, denoted by direction (Up, Down, Left,
Right) and level (number of rectangles between the query's cell and
itself).  A best-first search pushes rectangles instead of individual
cells, expanding a rectangle into its cells (and chaining to the next
level of the same direction) only when it reaches the top of the heap.

This module provides the rectangle bookkeeping (:class:`ConceptualSpace`)
plus the grid NN searches built on it:

* :func:`nn_search` — exact k-NN of a point (optionally bounded);
* :func:`constrained_nn_search` — exact NN within one 60-degree sector,
  the primitive behind pie-region re-computation (``updatePie`` Case 2);
* :func:`nn_search_batch` — many independent ``k == 1`` searches of
  either kind against one frozen object set (a tick's pie phase).

The six-sector *concurrent* search of the CRNN initialisation lives in
:mod:`repro.core.init_crnn`; it reuses :class:`ConceptualSpace`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Iterator, Optional

from repro.geometry.point import Point, dist
from repro.geometry.rect import Rect
from repro.geometry.sector import sector_of
from repro.geometry.wedge import rect_maybe_intersects_sector
from repro.grid.cell import Cell
from repro.grid.index import GridIndex
from repro.perf.kernels import constrained_nn_k1_vector, nn_k1_multi, nn_k1_vector

DIRECTIONS = ("U", "R", "D", "L")


class ConceptualSpace:
    """The conceptual rectangles of one query point over a grid.

    Level ``l`` rectangles form the square ring of cells at Chebyshev
    distance ``l + 1`` from the query's cell, split into four pinwheel
    strips so every ring cell belongs to exactly one rectangle.
    """

    def __init__(self, grid: GridIndex, q: Point):
        self.grid = grid
        self.q = q
        self.qcx, self.qcy = grid.cell_coords(q)

    def center_cell(self) -> Cell:
        """The cell containing the query point."""
        return self.grid.cell(self.qcx, self.qcy)

    def rect_cell_range(self, direction: str, level: int) -> Optional[tuple[int, int, int, int]]:
        """Inclusive cell-coordinate range of a conceptual rectangle.

        Returns ``None`` when the rectangle lies entirely outside the
        grid (that direction chain is exhausted: higher levels of the
        same direction are outside too).
        """
        n = self.grid.n
        qcx, qcy = self.qcx, self.qcy
        step = level + 1
        if direction == "U":
            row = qcy + step
            if row >= n:
                return None
            cx0, cx1 = qcx - step, qcx + level
            return max(cx0, 0), row, min(cx1, n - 1), row
        if direction == "D":
            row = qcy - step
            if row < 0:
                return None
            cx0, cx1 = qcx - level, qcx + step
            return max(cx0, 0), row, min(cx1, n - 1), row
        if direction == "R":
            col = qcx + step
            if col >= n:
                return None
            cy0, cy1 = qcy - level, qcy + step
            return col, max(cy0, 0), col, min(cy1, n - 1)
        if direction == "L":
            col = qcx - step
            if col < 0:
                return None
            cy0, cy1 = qcy - step, qcy + level
            return col, max(cy0, 0), col, min(cy1, n - 1)
        raise ValueError(f"unknown direction {direction!r}")

    def rect_bounds(self, direction: str, level: int) -> Optional[Rect]:
        """World-coordinate extent of a conceptual rectangle, or ``None``."""
        rng = self.rect_cell_range(direction, level)
        if rng is None:
            return None
        cx0, cy0, cx1, cy1 = rng
        lo = self.grid.cell_rect(cx0, cy0)
        hi = self.grid.cell_rect(cx1, cy1)
        return Rect(lo.xmin, lo.ymin, hi.xmax, hi.ymax)

    def cells_of(self, direction: str, level: int) -> Iterator[Cell]:
        """The grid cells of a conceptual rectangle."""
        rng = self.rect_cell_range(direction, level)
        if rng is None:
            return
        cx0, cy0, cx1, cy1 = rng
        for cy in range(cy0, cy1 + 1):
            for cx in range(cx0, cx1 + 1):
                yield self.grid.cell(cx, cy)


# Heap entry kinds; entries are (key, kind, tiebreak, payload) so at an
# equal key objects sort before cells/rects (an object popped at
# distance d is returned before structures that might only contain
# objects at >= d) and tied objects sort by id — together with the
# tie-exhaustive stopping rule below this makes the returned k-NN list
# canonical under the (distance, oid) order, which is the contract the
# vectorized kernels reproduce bit-for-bit.
_KIND_OBJECT = 0
_KIND_CELL = 1
_KIND_RECT = 2


def nn_search(
    grid: GridIndex,
    q: Point,
    k: int = 1,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> list[tuple[float, int]]:
    """Exact k nearest objects to ``q``, nearest first.

    Objects in ``exclude`` are skipped; objects farther than ``max_dist``
    are never reported, and the search stops as soon as it can prove no
    object within ``max_dist`` remains — this bounded form is what makes
    the lazy-update optimisation cheap.  Ties at the k-th distance are
    broken by object id (canonical order).

    ``k == 1`` requests are served by the vectorized ring-expansion
    kernel when the grid's CSR bucketing is fresh; the heap-based scalar
    search below is its reference twin.
    """
    grid.stats.nn_searches += 1
    tracer = grid.tracer
    if tracer.enabled:
        with tracer.span("cpm.nn_search", k=k) as sp:
            found = _nn_search_dispatch(grid, q, k, exclude, max_dist)
            sp.set("found", len(found))
            return found
    return _nn_search_dispatch(grid, q, k, exclude, max_dist)


def _nn_search_dispatch(
    grid: GridIndex,
    q: Point,
    k: int,
    exclude: Iterable[int],
    max_dist: float,
) -> list[tuple[float, int]]:
    if k == 1 and grid.csr_fresh and grid.vector_enabled:
        found = nn_k1_vector(grid, q, exclude=exclude, max_dist=max_dist)
        return [found] if found is not None else []
    return _nn_search_scalar(grid, q, k, exclude, max_dist)


def _nn_search_scalar(
    grid: GridIndex,
    q: Point,
    k: int = 1,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> list[tuple[float, int]]:
    """Reference scalar twin of :func:`nn_search` (heap best-first)."""
    excluded = set(exclude)
    space = ConceptualSpace(grid, q)
    counter = itertools.count()
    heap: list[tuple[float, int, int, object]] = []

    def push_cell(cell: Cell) -> None:
        heapq.heappush(heap, (cell.rect.mindist(q), _KIND_CELL, next(counter), cell))

    def push_rect(direction: str, level: int) -> None:
        bounds = space.rect_bounds(direction, level)
        if bounds is not None:
            heapq.heappush(
                heap, (bounds.mindist(q), _KIND_RECT, next(counter), (direction, level))
            )

    push_cell(space.center_cell())
    for direction in DIRECTIONS:
        push_rect(direction, 0)

    results: list[tuple[float, int]] = []
    while heap:
        key, kind, _, payload = heapq.heappop(heap)
        grid.stats.heap_pops += 1
        if key > max_dist:
            break
        # Tie-exhaustive stop: keep going while entries at exactly the
        # k-th distance remain, so equal-distance objects can be
        # canonicalized by id below.
        if len(results) >= k and key > results[k - 1][0]:
            break
        if kind == _KIND_OBJECT:
            results.append((key, payload))  # type: ignore[arg-type]
        elif kind == _KIND_CELL:
            grid.stats.cells_visited += 1
            cell: Cell = payload  # type: ignore[assignment]
            for oid in cell.objects:
                if oid in excluded:
                    continue
                d = dist(q, grid.positions[oid])
                if d <= max_dist:
                    heapq.heappush(heap, (d, _KIND_OBJECT, oid, oid))
        else:
            direction, level = payload  # type: ignore[misc]
            for cell in space.cells_of(direction, level):
                push_cell(cell)
            push_rect(direction, level + 1)
    results.sort()
    return results[:k]


def nearest_neighbor(
    grid: GridIndex,
    q: Point,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> Optional[tuple[float, int]]:
    """The single nearest object to ``q`` within ``max_dist``, or ``None``."""
    found = nn_search(grid, q, k=1, exclude=exclude, max_dist=max_dist)
    return found[0] if found else None


def constrained_knn_search(
    grid: GridIndex,
    q: Point,
    sector: int,
    k: int = 1,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> list[tuple[float, int]]:
    """The k nearest objects to ``q`` within one sector, nearest first.

    Heap keys are plain point-rect mindists — valid lower bounds for the
    in-sector distance — and cells/rectangles that provably miss the
    sector are filtered out with a cheap corner test instead of exact
    wedge clipping.  Out-of-sector objects in visited cells are skipped.
    Ties at the k-th distance are broken by object id, and ``k == 1``
    requests dispatch to the vectorized kernel exactly like
    :func:`nn_search`.
    """
    grid.stats.constrained_nn_searches += 1
    tracer = grid.tracer
    if tracer.enabled:
        with tracer.span("cpm.constrained_nn_search", sector=sector, k=k) as sp:
            found = _constrained_dispatch(grid, q, sector, k, exclude, max_dist)
            sp.set("found", len(found))
            return found
    return _constrained_dispatch(grid, q, sector, k, exclude, max_dist)


def _constrained_dispatch(
    grid: GridIndex,
    q: Point,
    sector: int,
    k: int,
    exclude: Iterable[int],
    max_dist: float,
) -> list[tuple[float, int]]:
    if k == 1 and grid.csr_fresh and grid.vector_enabled:
        found = constrained_nn_k1_vector(
            grid, q, sector, exclude=exclude, max_dist=max_dist
        )
        return [found] if found is not None else []
    return _constrained_knn_search_scalar(grid, q, sector, k, exclude, max_dist)


def _constrained_knn_search_scalar(
    grid: GridIndex,
    q: Point,
    sector: int,
    k: int = 1,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> list[tuple[float, int]]:
    """Reference scalar twin of :func:`constrained_knn_search`."""
    excluded = set(exclude)
    space = ConceptualSpace(grid, q)
    counter = itertools.count()
    heap: list[tuple[float, int, int, object]] = []

    def push_cell(cell: Cell) -> None:
        if not rect_maybe_intersects_sector(q, cell.rect, sector):
            return
        key = cell.rect.mindist(q)
        if key <= max_dist:
            heapq.heappush(heap, (key, _KIND_CELL, next(counter), cell))

    def push_rect(direction: str, level: int) -> None:
        bounds = space.rect_bounds(direction, level)
        if bounds is None:
            return
        # A rectangle disjoint from the sector never yields cells (its
        # cells are subsets, hence disjoint too), but it still chains to
        # the next level of its direction, whose longer strip may
        # re-enter the sector; keep it in the heap chain-only.
        chain_only = not rect_maybe_intersects_sector(q, bounds, sector)
        key = bounds.mindist(q)
        if key <= max_dist:
            heapq.heappush(
                heap, (key, _KIND_RECT, next(counter), (direction, level, chain_only))
            )

    push_cell(space.center_cell())
    for direction in DIRECTIONS:
        push_rect(direction, 0)

    results: list[tuple[float, int]] = []
    while heap:
        key, kind, _, payload = heapq.heappop(heap)
        grid.stats.heap_pops += 1
        if key > max_dist:
            break
        if len(results) >= k and key > results[k - 1][0]:
            break
        if kind == _KIND_OBJECT:
            results.append((key, payload))  # type: ignore[arg-type]
        elif kind == _KIND_CELL:
            grid.stats.cells_visited += 1
            cell: Cell = payload  # type: ignore[assignment]
            for oid in cell.objects:
                if oid in excluded:
                    continue
                pos = grid.positions[oid]
                if sector_of(q, pos) != sector:
                    continue
                d = dist(q, pos)
                if d <= max_dist:
                    heapq.heappush(heap, (d, _KIND_OBJECT, oid, oid))
        else:
            direction, level, chain_only = payload  # type: ignore[misc]
            if not chain_only:
                for cell in space.cells_of(direction, level):
                    push_cell(cell)
            push_rect(direction, level + 1)
    results.sort()
    return results[:k]


def constrained_nn_search(
    grid: GridIndex,
    q: Point,
    sector: int,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> Optional[tuple[float, int]]:
    """Nearest object to ``q`` within one sector (k=1 convenience form)."""
    found = constrained_knn_search(
        grid, q, sector, k=1, exclude=exclude, max_dist=max_dist
    )
    return found[0] if found else None


#: One search request of :func:`nn_search_batch`:
#: ``(centre, sector | None, exclude, max_dist)``.
NNRequest = tuple[Point, Optional[int], Iterable[int], float]


def nn_search_batch(
    grid: GridIndex, requests: list[NNRequest]
) -> list[Optional[tuple[float, int]]]:
    """Answer many independent ``k == 1`` searches against one object set.

    Entry ``i`` of the result is :func:`nearest_neighbor` (``sector is
    None``) or :func:`constrained_nn_search` of request ``i``; the grid
    must not change between the requests' creation and this call, which
    is what makes them independent.  ``nn_searches`` /
    ``constrained_nn_searches`` count one per request answered.

    Dispatches like its single-request siblings: the multi-query kernel
    (:func:`repro.perf.kernels.nn_k1_multi`) when the CSR bucketing is
    fresh, else a loop over the scalar reference twins.  The two agree
    for objects inside ``grid.bounds`` — what the ingestion guard admits;
    an object stored outside the data space (guard off, clamped into a
    border cell) is outside this function's contract.
    """
    if not requests:
        return []
    constrained = sum(1 for rq in requests if rq[1] is not None)
    grid.stats.constrained_nn_searches += constrained
    grid.stats.nn_searches += len(requests) - constrained
    tracer = grid.tracer
    if tracer.enabled:
        with tracer.span("cpm.nn_search_batch", requests=len(requests)) as sp:
            found = _batch_dispatch(grid, requests)
            sp.set("found", sum(1 for hit in found if hit is not None))
            return found
    return _batch_dispatch(grid, requests)


def _batch_dispatch(
    grid: GridIndex, requests: list[NNRequest]
) -> list[Optional[tuple[float, int]]]:
    if grid.csr_fresh and grid.vector_enabled:
        return nn_k1_multi(grid, requests)
    out: list[Optional[tuple[float, int]]] = []
    for q, sector, exclude, max_dist in requests:
        if sector is None:
            found = _nn_search_scalar(grid, q, 1, exclude, max_dist)
        else:
            found = _constrained_knn_search_scalar(grid, q, sector, 1, exclude, max_dist)
        out.append(found[0] if found else None)
    return out


def count_within(
    grid: GridIndex,
    center: Point,
    radius: float,
    limit: int,
    exclude: Iterable[int] = (),
) -> int:
    """Number of objects strictly within ``radius`` of ``center``.

    Stops counting at ``limit`` (the RkNN verification only needs to
    know whether at least ``k`` disprovers exist).
    """
    excluded = frozenset(exclude)
    count = 0
    for cell in grid.cells_intersecting_circle(center, radius):
        grid.stats.cells_visited += 1
        for oid in cell.objects:
            if oid in excluded:
                continue
            if dist(center, grid.positions[oid]) < radius:
                count += 1
                if count >= limit:
                    return count
    return count
