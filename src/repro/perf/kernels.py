"""Vectorized hot-path kernels over the grid's NumPy position store.

Each kernel here is the fast twin of a scalar reference implementation
elsewhere (named in each docstring) and must return **bit-identical**
results — the differential test suites in ``tests/test_perf_equiv.py``
enforce this on random and adversarial inputs.

The trick that makes bit-identity possible: ``np.hypot`` does *not*
round identically to ``math.hypot`` (they differ by 1 ulp on ~0.6% of
inputs), but ``np.sqrt`` matches ``math.sqrt`` exactly and squared
distances are computed with the same elementwise operations in both
worlds.  So the kernels never compare NumPy-computed Euclidean
distances directly: they select a tiny shortlist by *squared* distance
with a relative guard band many orders of magnitude wider than the
worst-case rounding disagreement (~4e-16 relative), then score the
shortlist with scalar ``math.hypot`` — the exact function the reference
implementation uses — and break ties by ``(distance, oid)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from repro.geometry.point import Point, dist
from repro.geometry.sector import _BOUNDARY_DIRS, _SIN60, NUM_SECTORS, sector_of

#: Relative guard band for squared-distance candidate selection.  Hypot
#: vs sqrt-of-squares rounding differs by at most a few ulp (~4e-16
#: relative); 1e-9 is astronomically safer while still shortlisting only
#: genuinely-tied candidates.
_BAND = 1.0 + 1e-9
#: Acceptance margin for the ring-expansion termination: a best distance
#: within a hair of the gathered radius triggers one more expansion
#: instead of risking a missed neighbor just past a rounded row interval.
_ACCEPT = 1.0 - 1e-9

#: Components of boundary rays 0..5 as columns, for (6, n) broadcasting.
_RAY_X = np.array([d[0] for d in _BOUNDARY_DIRS[:NUM_SECTORS]])[:, None]
_RAY_Y = np.array([d[1] for d in _BOUNDARY_DIRS[:NUM_SECTORS]])[:, None]


def sector_of_vector(q: Point, xs, ys):
    """Vector twin of :func:`repro.geometry.sector.sector_of`.

    Replicates the scalar cross-product chain exactly (same operations,
    same first-match rule, same ``p == q -> 0`` convention), so every
    element agrees with the scalar function bit-for-bit.
    """
    return _sector_of_offsets(xs - q[0], ys - q[1])


def _sector_of_offsets(vx, vy):
    """:func:`sector_of_vector` of the offsets ``p - q`` themselves."""
    # sides[i] = cross(ray i, p - q), all rays the chain tests at once.
    sides = _RAY_X * vy - _RAY_Y * vx
    hit = (sides[:-1] >= 0.0) & (sides[1:] < 0.0)
    out = np.where(hit.any(axis=0), hit.argmax(axis=0), NUM_SECTORS - 1)
    out[(vx == 0.0) & (vy == 0.0)] = 0
    return out


def _gather_rows(grid, rows):
    """CSR slot indices of the objects in the given cell row intervals.

    A grid row's cells are one contiguous flat-index interval, hence one
    contiguous CSR interval — the gather is a handful of slices, no
    per-cell work, and no ``Cell`` is materialized.
    """
    order = grid._csr_order
    indptr = grid._csr_indptr
    n = grid.n
    pieces = []
    for cy, cx0, cx1 in rows:
        base = cy * n
        start = indptr[base + cx0]
        end = indptr[base + cx1 + 1]
        if end > start:
            pieces.append(order[start:end])
    if not pieces:
        return None
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces)


def _gather_slots(grid, center: Point, radius: float):
    """CSR slot indices of objects in cells meeting the disk."""
    return _gather_rows(grid, grid.circle_row_intervals(center, radius))


#: Below this many gathered candidates the exact scalar loop beats the
#: NumPy pipeline's fixed per-call overhead; both produce the identical
#: ``(distance, oid)`` argmin, so the cutoff is a pure perf knob.
_SCALAR_CUTOFF = 24

#: Expected object count inside the first gathered disk — the start
#: radius is sized from the live density so typical searches finish in
#: one round instead of crawling outward cell by cell.
_TARGET_FIRST_RING = 16.0


def _best_candidate(
    grid,
    idx,
    q: Point,
    excluded: frozenset[int] | set[int],
    excl_arr,
    max_dist: float,
    sector: Optional[int],
) -> Optional[tuple[float, int]]:
    """Exact ``(distance, oid)`` argmin over the gathered slots.

    Squared-distance selection with a guard band, then scalar
    ``math.hypot`` on the shortlist — see the module docstring.
    """
    qx, qy = q
    if len(idx) <= _SCALAR_CUTOFF:
        best: Optional[tuple[float, int]] = None
        oid_arr, px, py = grid._oid_arr, grid._px, grid._py
        for i in idx:
            oid = int(oid_arr[i])
            if oid in excluded:
                continue
            x = float(px[i])
            y = float(py[i])
            if sector is not None and sector_of(q, (x, y)) != sector:
                continue
            d = math.hypot(x - qx, y - qy)
            cand = (d, oid)
            if best is None or cand < best:
                best = cand
        if best is not None and best[0] <= max_dist:
            return best
        return None
    oids = grid._oid_arr[idx]
    xs = grid._px[idx]
    ys = grid._py[idx]
    mask = np.ones(len(idx), dtype=bool)
    if excl_arr is not None:
        mask &= ~np.isin(oids, excl_arr)
    if sector is not None:
        mask &= sector_of_vector(q, xs, ys) == sector
    dx = xs - qx
    dy = ys - qy
    d2 = dx * dx + dy * dy
    d2 = np.where(mask, d2, np.inf)
    m2 = d2.min()
    if not math.isfinite(m2):
        return None
    shortlist = np.nonzero(d2 <= m2 * _BAND)[0]
    best = None
    for i in shortlist:
        d = math.hypot(float(xs[i]) - qx, float(ys[i]) - qy)
        cand = (d, int(oids[i]))
        if best is None or cand < best:
            best = cand
    if best is not None and best[0] <= max_dist:
        return best
    return None


def _exclusion(exclude: Iterable[int]):
    """``exclude`` as a set for scalar tests and an array for ``np.isin``."""
    excluded = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
    if not excluded:
        return excluded, None
    # Set order leaks into the array, but it only feeds np.isin, which
    # is insensitive to element order.
    return excluded, np.fromiter(excluded, dtype=np.int64, count=len(excluded))


def _first_radius(grid, target: float) -> float:
    """Radius of a disk expected to hold ``target`` objects at the live density."""
    r0 = max(grid._cell_w, grid._cell_h)
    if grid._size:
        area = grid.bounds.width * grid.bounds.height
        r0 = max(r0, math.sqrt(area * target / grid._size))
    return r0


def _nn_ring_expansion(
    grid,
    q: Point,
    sector: Optional[int],
    exclude: Iterable[int],
    max_dist: float,
) -> Optional[tuple[float, int]]:
    excluded, excl_arr = _exclusion(exclude)
    limit = max_dist * _BAND if math.isfinite(max_dist) else math.inf
    cover_r = grid.bounds.maxdist(q) * _BAND
    size = grid._size
    r0 = _first_radius(grid, _TARGET_FIRST_RING)
    # Even a zero bound must gather q's own cell, and the row test
    # compares against cell edges that carry rounding: keep a hair.
    r = min(max(min(r0, limit), r0 * 1e-9), cover_r)
    while True:
        if r >= cover_r:
            # Full cover: every live slot, no row gathering needed.
            idx = np.arange(size) if size else None
        else:
            idx = _gather_slots(grid, q, r)
        best = None
        if idx is not None:
            best = _best_candidate(grid, idx, q, excluded, excl_arr, max_dist, sector)
        if best is not None and best[0] <= r * _ACCEPT:
            return best
        if r >= cover_r or r >= limit:
            # Everything outside the gathered cells is provably farther
            # than the bound (or the whole grid was gathered).
            return best
        r = min(max(r * 3.0, grid._cell_w), limit, cover_r)


def nn_k1_vector(
    grid,
    q: Point,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> Optional[tuple[float, int]]:
    """Vector twin of ``cpm._nn_search_scalar`` for ``k == 1``.

    Ring expansion over the CSR bucketing: gather all objects in cells
    meeting ``disk(q, r)``, take the exact ``(d, oid)`` argmin, accept
    when it is provably inside the gathered region, else grow ``r``.
    Requires ``grid.csr_fresh`` (the caller dispatches).
    """
    grid.stats.vector_nn_kernel_calls += 1
    return _nn_ring_expansion(grid, q, None, exclude, max_dist)


def constrained_nn_k1_vector(
    grid,
    q: Point,
    sector: int,
    exclude: Iterable[int] = (),
    max_dist: float = math.inf,
) -> Optional[tuple[float, int]]:
    """Vector twin of ``cpm._constrained_knn_search_scalar`` for ``k == 1``.

    Same ring expansion with an exact vectorized sector filter
    (:func:`sector_of_vector`) applied to the gathered candidates.
    """
    grid.stats.vector_nn_kernel_calls += 1
    return _nn_ring_expansion(grid, q, sector, exclude, max_dist)


#: Bounding box of a unit pie per sector, as offsets from the apex; the
#: last row (index ``-1``, "no sector") is the unit disk's.  The apex-side
#: edges are exact — ``sector_of`` puts no point with ``vy < 0`` in
#: sectors 0-2, none with ``vy > 0`` in 3-5, none with ``vx < 0`` in 0/5
#: or ``vx > 0`` in 2/3 — and the arc-side edges sit a relative
#: ``1 - _ACCEPT`` beyond anything the kernel accepts without looking
#: further, seven orders above the cross products' rounding.
_BOX_X0 = np.array([0.0, -0.5, -1.0, -1.0, -0.5, 0.0, -1.0])
_BOX_X1 = np.array([1.0, 0.5, 0.0, 0.0, 0.5, 1.0, 1.0])
_BOX_Y0 = np.array([0.0, 0.0, 0.0, -_SIN60, -1.0, -_SIN60, -1.0])
_BOX_Y1 = np.array([_SIN60, 1.0, _SIN60, 0.0, 0.0, 0.0, 1.0])


def _gather_boxes(grid, x0, x1, y0, y1):
    """CSR slots of the objects in many cell boxes, laid end to end.

    Box ``i`` holds every cell meeting the rectangle ``[x0[i], x1[i]] x
    [y0[i], y1[i]]`` (cell indexing is monotone in each coordinate, so
    truncating the corners finds them).  Returns ``(slots, count)``:
    ``count[i]`` slots of box ``i`` follow those of box ``i - 1``.  One
    CSR slice per (box, row), since a grid row's cells are one
    contiguous flat-index interval; no ``Cell`` is read.
    """
    bounds, n = grid.bounds, grid.n
    # Truncate-then-clamp exactly like GridIndex.cell_coords (two ufuncs
    # cost a fraction of np.clip's Python wrapper on these short arrays).
    cx0, cx1, cy0, cy1 = (
        np.minimum(np.maximum(((v - lo) / w).astype(np.int64), 0), n - 1)
        for v, lo, w in (
            (x0, bounds.xmin, grid._cell_w), (x1, bounds.xmin, grid._cell_w),
            (y0, bounds.ymin, grid._cell_h), (y1, bounds.ymin, grid._cell_h),
        )
    )
    indptr = grid._csr_indptr
    nrows = cy1 - cy0 + 1
    row_end = np.cumsum(nrows)
    row_start = row_end - nrows
    base = (np.arange(row_end[-1]) + np.repeat(cy0 - row_start, nrows)) * n
    starts = indptr[base + np.repeat(cx0, nrows)]
    lens = indptr[base + np.repeat(cx1, nrows) + 1] - starts
    count = np.add.reduceat(lens, row_start)
    elem_end = np.cumsum(lens)
    total = int(elem_end[-1])
    slots = grid._csr_order[np.arange(total) + np.repeat(starts - (elem_end - lens), lens)]
    return slots, count


def _exclusion_keys(grid, excludes):
    """``(stride, keys)``: request ``i``'s excluded live slot ``s`` as the
    int64 key ``i * stride + s`` (``keys`` is ``None`` when nothing is
    excluded).  One key per (request, slot) pair turns every request's
    own exclusion set into a single ``np.isin`` over gathered elements.
    Neither side repeats a key (a request's boxes never gather a slot
    twice), so the test runs with ``assume_unique``: that skips
    ``np.unique``, whose masked-array check imports ``numpy.ma``
    (~0.6 MB) on first use.
    """
    excl_req: list[int] = []
    excl_slot: list[int] = []
    slot_of = grid._slot
    for i, exclude in enumerate(excludes):
        for oid in exclude:
            slot = slot_of.get(oid)
            if slot is not None:
                excl_req.append(i)
                excl_slot.append(slot)
    stride = len(grid._oid_arr)
    if not excl_req:
        return stride, None
    return stride, np.array(excl_req, dtype=np.int64) * stride + np.array(excl_slot, dtype=np.int64)


def nn_k1_multi(grid, requests, start: float = 0.0) -> list[Optional[tuple[float, int]]]:
    """Many independent ``k == 1`` searches from one gather per round.

    ``requests`` is a sequence of ``(centre, sector | None, exclude,
    max_dist)``; entry ``i`` of the result is exactly what
    :func:`nn_k1_vector` (``sector is None``) or
    :func:`constrained_nn_k1_vector` returns for request ``i`` — the
    ``(distance, oid)`` argmin of the eligible objects, a pure function
    of the object set, so neither the request order nor the radii tried
    can show in an answer.

    Same ring expansion, run for all open requests at once: each round
    gathers, per request, the CSR slots of the cell *bounding box* of
    ``disk(centre, r)`` — of the sector's pie, for a constrained request
    — (cell indexing is monotone in each coordinate, so the box holds
    every eligible object within ``r``), scores all of them in
    one squared-distance pass, takes each request's minimum with
    ``np.minimum.reduceat`` and settles the guard-banded shortlist with
    ``math.hypot``.  A request is answered once its best lies inside the
    gathered disk (``_ACCEPT``) or the disk reached its bound or covers
    the data space; the rest go round again at three times the radius.
    NumPy's fixed cost is paid per round, not per search.  The first
    round's radius is the density-sized default or ``start``, whichever
    is larger (a caller that knows the disk around every centre holds
    nothing eligible skips those rounds).  Requires ``grid.csr_fresh``
    (the caller dispatches).

    Contract: every object lies inside ``grid.bounds`` (what the
    ingestion guard admits).  An object stored *outside* the data space
    (guard off, kept in a border cell) is seen here only through the
    cells a box covers, by the scalar twins only through the cells their
    sector filter admits, and by the per-call kernel's full-cover round
    in every slot — for such an object the three may answer differently.
    """
    grid.stats.vector_nn_kernel_calls += 1
    m = len(requests)
    out: list[Optional[tuple[float, int]]] = [None] * m
    if not m or not grid._size:
        return out
    qx_l = [rq[0][0] for rq in requests]
    qy_l = [rq[0][1] for rq in requests]
    max_l = [rq[3] for rq in requests]
    qx = np.array(qx_l)
    qy = np.array(qy_l)
    sec = np.array([-1 if rq[1] is None else rq[1] for rq in requests])
    any_sector = bool((sec >= 0).any())
    stride, excl_keys = _exclusion_keys(grid, [rq[2] for rq in requests])
    bounds = grid.bounds
    cell_w = grid._cell_w
    limit_l = (np.array(max_l) * _BAND).tolist()  # inf stays inf
    cover_l = (
        np.hypot(
            np.maximum(np.abs(qx - bounds.xmin), np.abs(qx - bounds.xmax)),
            np.maximum(np.abs(qy - bounds.ymin), np.abs(qy - bounds.ymax)),
        )
        * _BAND
    ).tolist()
    r0 = max(_first_radius(grid, _TARGET_FIRST_RING), start)
    # Same start as _nn_ring_expansion: a zero bound still reads the
    # centre's own cell.
    r_l = [
        min(max(min(r0, limit), r0 * 1e-9), cover)
        for limit, cover in zip(limit_l, cover_l)
    ]
    oid_arr, px, py = grid._oid_arr, grid._px, grid._py
    open_l = list(range(m))
    while open_l:
        k = len(open_l)
        sel = np.array(open_l)
        oqx = qx[sel]
        oqy = qy[sel]
        orr = np.array([r_l[g] for g in open_l])
        shape = sec[sel]
        slots, count = _gather_boxes(
            grid,
            oqx + orr * _BOX_X0[shape],
            oqx + orr * _BOX_X1[shape],
            oqy + orr * _BOX_Y0[shape],
            oqy + orr * _BOX_Y1[shape],
        )
        best: list[Optional[tuple[float, int]]] = [None] * k
        if len(slots):
            req = np.repeat(np.arange(k), count)
            xs = px[slots]
            ys = py[slots]
            eqx = oqx[req]
            eqy = oqy[req]
            dx = xs - eqx
            dy = ys - eqy
            d2 = dx * dx + dy * dy
            if excl_keys is not None:
                d2[np.isin(sel[req] * stride + slots, excl_keys, assume_unique=True)] = np.inf
            if any_sector:
                want = shape[req]
                d2[(want >= 0) & (_sector_of_offsets(dx, dy) != want)] = np.inf
            # reduceat needs non-empty segments; their starts are then
            # strictly increasing.
            filled = count > 0
            m2 = np.full(k, np.inf)
            m2[filled] = np.minimum.reduceat(d2, (np.cumsum(count) - count)[filled])
            # An all-inf segment must shortlist nothing (inf <= inf).
            bound = np.where(np.isfinite(m2), m2 * _BAND, -1.0)
            short = np.nonzero(d2 <= bound[req])[0]
            for i, x, y, oid in zip(
                req[short].tolist(),
                xs[short].tolist(),
                ys[short].tolist(),
                oid_arr[slots[short]].tolist(),
            ):
                g = open_l[i]
                cand = (math.hypot(x - qx_l[g], y - qy_l[g]), oid)
                if best[i] is None or cand < best[i]:
                    best[i] = cand
        still_open = []
        for i, g in enumerate(open_l):
            r = r_l[g]
            hit = best[i]
            if hit is not None and hit[0] > max_l[g]:
                hit = None
            if (hit is not None and hit[0] <= r * _ACCEPT) or r >= cover_l[g] or r >= limit_l[g]:
                # Inside the gathered disk, or nothing eligible lies
                # beyond it (bound reached / whole data space gathered).
                out[g] = hit
            else:
                r_l[g] = min(max(r * 3.0, cell_w), limit_l[g], cover_l[g])
                still_open.append(g)
        open_l = still_open
    return out


#: Expected object count inside ``initCRNN``'s gathered disk.  A sector is
#: served entirely from that one gather when it holds the sector's
#: constrained NN *and* the disk of twice its distance (where the
#: candidate's certificate lives): on a uniform layout that fails for a
#: fraction ``exp(-n / 24)`` of sectors — 7 % at 64, against 51 % at the
#: NN kernels' 16.  The failures of a whole chunk share one batched
#: search, so a smaller disk pays: on ``query-move`` 64 answers a tick's
#: 20 moves in two thirds of the time 128 takes, with half the transient
#: arrays.  A chunk of ``m < 3`` requests has few failures to share one
#: search, so its disk holds ``3 / m`` times as many (192 for a lone
#: request: 0.17 fallback calls per request on ``query-move``, against
#: 0.9 at 64).  A pure performance knob: the answers do not depend on it.
_TARGET_INIT_RING = 64.0

#: Requests per gather of :func:`init_crnn_multi`: a chunk bounds the
#: transient arrays (about 1.5 MB at 32 on ``query-move``) whatever the
#: batch, and a tick's 20 query moves fit in one.
_INIT_CHUNK = 32


def _segment_argmin(d2, seg, m2, xs, ys, cx, cy, oids):
    """Exact ``(distance, oid, element)`` argmin of each segment of ``d2``.

    ``d2[e]`` is the squared distance from the centre ``(cx[k], cy[k])``
    of segment ``k = seg[e]`` to element ``e`` at ``(xs[e], ys[e])``
    (``inf`` = not eligible), and ``m2[k]`` the minimum of segment ``k``
    (the caller reduces: ``np.minimum.at`` in general, one
    ``reduceat`` when the segments are runs).  Per segment a
    guard-banded shortlist scored with ``math.hypot``: the
    :func:`_best_candidate` rule for many centres in one pass.  Returns
    a dict segment -> argmin; segments with no eligible element are
    absent.
    """
    # An all-inf segment must shortlist nothing (inf <= inf would take all).
    bound = np.where(np.isfinite(m2), m2 * _BAND, -1.0)
    short = np.nonzero(d2 <= bound[seg])[0]
    best: dict[int, tuple[float, int, int]] = {}
    for e, k, x, y, oid in zip(
        short.tolist(), seg[short].tolist(), xs[short].tolist(), ys[short].tolist(),
        oids[short].tolist(),
    ):
        hit = (math.hypot(x - cx[k], y - cy[k]), oid, e)
        if k not in best or hit < best[k]:
            best[k] = hit
    return best


def init_crnn_multi(grid, requests) -> list[tuple[list, list, list, list]]:
    """Vector twin of ``repro.core.init_crnn._init_crnn_scalar``, many
    queries at a time.

    ``requests`` is a sequence of ``(q, exclude)``; entry ``i`` of the
    result is ``(cand, d_cand, nn, d_nn)`` of request ``i`` (six entries
    each), exactly what the heap traversal answers for it alone — a pure
    function of the object set, ``q`` and ``exclude``.

    Per chunk of requests, one CSR gather of every request's cell box
    around ``disk(q, r)`` (:func:`_gather_boxes`) serves all six sectors
    of all of them: per (request, sector) the exact ``(distance, oid)``
    constrained NN among the gathered slots, final once it is provably
    inside ``disk(q, r)``; and, for a candidate at distance ``d`` with
    ``2 d`` inside ``r`` — so that ``disk(cand, d)``, where any disprover
    lives, is gathered too — its bounded NN, read from the same arrays
    among the request's elements within ``2 d`` of ``q``.  What the
    gather leaves open is finished by :func:`nn_k1_multi`: one call for
    the sectors with no candidate inside the disk (an empty sector
    facing the border of the data space expands over its own pie's box
    only), then one call for every certificate the gather could not
    cover; ``vector_nn_kernel_fallbacks`` counts these calls.  Requires
    ``grid.csr_fresh`` (the caller dispatches).
    """
    grid.stats.vector_nn_kernel_calls += 1
    out = [
        ([None] * NUM_SECTORS, [math.inf] * NUM_SECTORS, [None] * NUM_SECTORS,
         [math.inf] * NUM_SECTORS)
        for _ in requests
    ]
    if not grid._size:
        return out
    for lo in range(0, len(requests), _INIT_CHUNK):
        _init_chunk(grid, requests[lo : lo + _INIT_CHUNK], out[lo : lo + _INIT_CHUNK])
    return out


def _init_chunk(grid, requests, out) -> None:
    """:func:`init_crnn_multi` for one chunk, written into ``out``."""
    m = len(requests)
    bounds = grid.bounds
    qx_l = [q[0] for q, _ in requests]
    qy_l = [q[1] for q, _ in requests]
    r0 = _first_radius(grid, _TARGET_INIT_RING * max(1.0, 3.0 / m))
    # A disk that reaches every corner gathers everything: nothing lies
    # beyond it, so whatever it leaves open is empty.
    r_l = []
    reach_l = []
    for q, _ in requests:
        cover = bounds.maxdist(q) * _BAND
        r = min(r0, cover)
        r_l.append(r)
        reach_l.append(math.inf if r >= cover else r * _ACCEPT)
    qx = np.array(qx_l)
    qy = np.array(qy_l)
    rr = np.array(r_l)
    stride, excl_keys = _exclusion_keys(grid, [exclude for _, exclude in requests])
    slots, count = _gather_boxes(grid, qx - rr, qx + rr, qy - rr, qy + rr)
    hits: dict[int, tuple[float, int, int]] = {}
    if len(slots):
        req = np.repeat(np.arange(m), count)
        xs = grid._px[slots]
        ys = grid._py[slots]
        oids = grid._oid_arr[slots]
        eqx = qx[req]
        eqy = qy[req]
        dx = xs - eqx
        dy = ys - eqy
        d2 = dx * dx + dy * dy
        if excl_keys is not None:
            d2[np.isin(req * stride + slots, excl_keys, assume_unique=True)] = np.inf
        # Segment ``i * 6 + s``: sector ``s`` of request ``i``.
        key = req * NUM_SECTORS + _sector_of_offsets(dx, dy)
        del dx, dy, eqx, eqy
        cx = [qx_l[k // NUM_SECTORS] for k in range(m * NUM_SECTORS)]
        cy = [qy_l[k // NUM_SECTORS] for k in range(m * NUM_SECTORS)]
        m2 = np.full(m * NUM_SECTORS, np.inf)
        np.minimum.at(m2, key, d2)
        hits = _segment_argmin(d2, key, m2, xs, ys, cx, cy, oids)
    covered: list[tuple[int, int, int]] = []  # (request, sector, element)
    searched: list[tuple[int, int]] = []  # (request, sector): certificate searched
    still_open: list[tuple[int, int]] = []
    for i in range(m):
        cand, d_cand = out[i][0], out[i][1]
        reach = reach_l[i]
        for s in range(NUM_SECTORS):
            hit = hits.get(i * NUM_SECTORS + s)
            if hit is None or hit[0] > reach:
                if reach != math.inf:
                    still_open.append((i, s))
                continue
            d_cand[s], cand[s] = hit[0], hit[1]
            if 2.0 * hit[0] <= reach:
                covered.append((i, s, hit[2]))
            else:
                searched.append((i, s))
    if covered:
        _certify_covered(covered, out, m, req, d2, xs, ys, oids)
    stats = grid.stats
    if still_open:
        # Nothing eligible lies inside an open sector's disk: start past it.
        stats.vector_nn_kernel_fallbacks += 1
        found = nn_k1_multi(
            grid,
            [(requests[i][0], s, requests[i][1], math.inf) for i, s in still_open],
            start=3.0 * r0,
        )
        for (i, s), hit in zip(still_open, found):
            if hit is not None:
                out[i][1][s], out[i][0][s] = hit
                searched.append((i, s))
    if searched:
        positions = grid.positions
        certs = []
        for i, s in searched:
            c = out[i][0][s]
            certs.append((positions[c], None, requests[i][1] | {c}, out[i][1][s]))
        stats.vector_nn_kernel_fallbacks += 1
        for (i, s), hit in zip(searched, nn_k1_multi(grid, certs)):
            if hit is not None and hit[0] < out[i][1][s]:
                out[i][3][s], out[i][2][s] = hit


def _certify_covered(covered, out, m, req, d2, xs, ys, oids) -> None:
    """Certificates of the covered candidates, read from the gather.

    A disprover of a candidate at distance ``d`` from its query lies in
    ``disk(cand, d)``, hence within ``2 d`` of the query: each request
    keeps its gathered elements inside twice its farthest covered
    candidate (guard-banded; an excluded element's ``inf`` is never
    kept), and every covered candidate takes the nearest of its
    request's kept elements other than itself.
    """
    lim = np.full(m, -1.0)
    for i, s, _ in covered:
        d = out[i][1][s]
        lim[i] = max(lim[i], 4.0 * d * d * _BAND)
    kept = np.flatnonzero(d2 <= lim[req])
    count = np.bincount(req[kept], minlength=m)
    seg_start = np.cumsum(count) - count
    creq = np.array([c[0] for c in covered])
    lens = count[creq]
    pair_end = np.cumsum(lens)
    pair_start = pair_end - lens
    pair = np.repeat(np.arange(len(covered)), lens)
    el = kept[np.arange(int(pair_end[-1])) + np.repeat(seg_start[creq] - pair_start, lens)]
    cel = np.array([c[2] for c in covered])
    ccx = xs[cel]
    ccy = ys[cel]
    exs = xs[el]
    eys = ys[el]
    ex = exs - ccx[pair]
    ey = eys - ccy[pair]
    e2 = ex * ex + ey * ey
    e2[el == cel[pair]] = np.inf  # the candidate itself
    # Each pair's run holds at least its candidate, so none is empty.
    nearest = _segment_argmin(
        e2, pair, np.minimum.reduceat(e2, pair_start), exs, eys,
        ccx.tolist(), ccy.tolist(), oids[el],
    )
    for p, (d, oid, _) in nearest.items():
        i, s, _ = covered[p]
        if d < out[i][1][s]:
            out[i][2][s], out[i][3][s] = oid, d


class EntrySnapshot:
    """The circ store's circles as one live structure of arrays.

    Slot ``i < len(self)`` holds the circle of object ``oids[i]``: centre
    ``(xs[i], ys[i])``, radius ``radii[i]``.  ``slot`` maps an oid to its
    slot, and ``pos`` keeps each centre as the caller's ``Point`` so the
    exact scalar predicate never reads a NumPy scalar.  :meth:`put`
    appends a new circle or patches its slot in place; :meth:`remove`
    moves the last slot into the hole.  So ``[:len(self)]`` is always
    dense and the prefilters scan live circles only.  The buffers double
    when full and never shrink.

    A batch caller that prefilters many points at once
    (:meth:`batch_containment_candidates`) sees the table as of that
    call: a circle put afterwards must be looked up again by the caller
    (the circ store does it with :meth:`PointSweep.disc` when a circle
    is new, re-centred or grew), and every prefilter hit is re-verified
    against the current circle with the exact open predicate, so
    staleness can only cost a wasted check.

    The class name dates from when each chunk built a fresh snapshot; it
    is kept because ``bench/tracing.py`` resolves its methods by name.
    """

    __slots__ = ("oids", "xs", "ys", "radii", "pos", "slot")

    def __init__(self, entries: Iterable = ()):
        self.oids = np.empty(64, dtype=np.int64)
        self.xs = np.empty(64, dtype=np.float64)
        self.ys = np.empty(64, dtype=np.float64)
        self.radii = np.empty(64, dtype=np.float64)
        self.pos: list[Point] = []
        self.slot: dict[int, int] = {}
        for e in entries:
            self.put(e.oid, e.pos, e.radius)

    def __len__(self) -> int:
        return len(self.pos)

    def __contains__(self, oid: int) -> bool:
        return oid in self.slot

    def get(self, oid: int) -> Optional[tuple[Point, float]]:
        """``(centre, radius)`` of ``oid``'s circle, or ``None`` if absent."""
        i = self.slot.get(oid)
        if i is None:
            return None
        return self.pos[i], float(self.radii[i])

    def put(self, oid: int, pos: Point, radius: float) -> None:
        """Set ``oid``'s circle: patch its slot, or append a new one."""
        i = self.slot.get(oid)
        if i is None:
            i = len(self.pos)
            if i == len(self.oids):
                self.oids, self.xs, self.ys, self.radii = (
                    np.concatenate((a, np.empty_like(a)))
                    for a in (self.oids, self.xs, self.ys, self.radii)
                )
            self.slot[oid] = i
            self.oids[i] = oid
            self.pos.append(pos)
        else:
            self.pos[i] = pos
        self.xs[i] = pos[0]
        self.ys[i] = pos[1]
        self.radii[i] = radius

    def remove(self, oid: int) -> None:
        """Drop ``oid``'s circle (a no-op if absent); the last slot fills the hole."""
        i = self.slot.pop(oid, None)
        if i is None:
            return
        last = len(self.pos) - 1
        tail = self.pos.pop()
        if i != last:
            moved = int(self.oids[last])
            self.slot[moved] = i
            self.oids[i] = moved
            self.xs[i] = self.xs[last]
            self.ys[i] = self.ys[last]
            self.radii[i] = self.radii[last]
            self.pos[i] = tail

    def _banded(self, p: Point):
        """Slots whose guard-banded circle may contain ``p``."""
        n = len(self.pos)
        dx = self.xs[:n] - p[0]
        dy = self.ys[:n] - p[1]
        d2 = dx * dx + dy * dy
        return np.nonzero(d2 <= (self.radii[:n] * _BAND) ** 2)[0]

    def containment_candidates(self, p: Point) -> list[int]:
        """Oids whose (guard-banded) circle may contain ``p``.

        Squared-distance prefilter twin of the exact open test
        ``dist(p, centre) < radius``; the guard band makes it a strict
        superset of that test.
        """
        return self.oids[self._banded(p)].tolist()

    def containment_search(self, p: Point) -> list[tuple[int, Point]]:
        """``(oid, centre)`` of every circle whose open disc contains ``p``,
        ascending by oid.

        The exact ``dist(p, centre) < radius`` test over
        :meth:`containment_candidates` — the answer *updateCirc* step 2
        reads for one moved object.
        """
        pos, radii = self.pos, self.radii
        return sorted(
            (int(self.oids[i]), pos[i])
            for i in self._banded(p).tolist()
            if dist(p, pos[i]) < radii[i]
        )

    def batch_containment_candidates(self, sweep: "PointSweep") -> dict[int, list[int]]:
        """:meth:`containment_candidates` for every point of ``sweep`` in one pass.

        A sort-and-sweep: each live circle takes the x-slab of the sorted
        points that its guard-banded radius can reach (two
        ``searchsorted``), and the gathered pairs run the dense banded
        squared-distance test element for element.  The slab is widened
        past any rounding of that test, so for every point the row equals
        ``containment_candidates(point)`` — same oids, slot order.  The
        result maps the label (:attr:`PointSweep.ids`) of each point with
        at least one candidate to its row; rows without one are absent.
        """
        n = len(self.pos)
        if not n or not len(sweep):
            return {}
        cx, cy = self.xs[:n], self.ys[:n]
        band = self.radii[:n] * _BAND
        w = _slab_halfwidth(cx, band)
        lo = np.searchsorted(sweep.xs, cx - w, side="left")
        counts = np.searchsorted(sweep.xs, cx + w, side="right") - lo
        total = int(counts.sum())
        if not total:
            return {}
        # Pair k joins circle slot[k] to sorted point at[k]: each circle's
        # slab lo..lo+count, laid end to end.
        slot = np.repeat(np.arange(n), counts)
        at = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        dx = cx[slot] - sweep.xs[at]
        dy = cy[slot] - sweep.ys[at]
        hit = np.nonzero(dx * dx + dy * dy <= (band**2)[slot])[0]
        labels, slot = sweep.ids[at[hit]], slot[hit]
        order = np.lexsort((slot, labels))
        rows: dict[int, list[int]] = {}
        for label, oid in zip(labels[order].tolist(), self.oids[slot[order]].tolist()):
            row = rows.get(label)
            if row is None:
                rows[label] = [oid]
            else:
                row.append(oid)
        return rows

    def validate(self) -> None:
        """The slot map and the arrays agree and ``[:len(self)]`` has no hole."""
        n = len(self.pos)
        assert len(self.slot) == n, "slot map and table length disagree"
        for oid, i in self.slot.items():
            # len(slot) == n and oids[i] == oid for every entry make the
            # map a bijection onto range(n): the live prefix is dense.
            assert 0 <= i < n and self.oids[i] == oid, f"slot of o{oid} is stale"
            p = self.pos[i]
            assert self.xs[i] == p[0] and self.ys[i] == p[1], f"centre of o{oid} is stale"


def _slab_halfwidth(cx, band):
    """Half-width of the x-slab around centre ``cx`` that holds every point
    passing the banded test ``dx*dx + dy*dy <= band**2``.

    That test implies ``|cx - x| <= band * (1 + 4e-16)`` (plus an
    underflow residue below 1e-150); the bounds ``cx -/+ w`` are
    themselves rounded by at most ``1.2e-16 * (|cx| + w)``.  The added
    ``1e-9 * (|cx| + band + 1)`` dwarfs both, so the slab never drops a
    pair the dense test keeps.  Scalars and arrays alike.
    """
    return band + 1e-9 * (abs(cx) + band + 1.0)


class PointSweep:
    """A batch of points sorted by x once, for slab lookups by many circles.

    ``ids`` labels the points (default: their index in ``pts``); every
    lookup answers in labels.  :meth:`EntrySnapshot.batch_containment_candidates`
    sweeps the whole circle table over it, :meth:`disc` looks up one
    circle.  The circ store builds one per batched *updateCirc* over the
    batch's new positions, labelled by move index.
    """

    __slots__ = ("xs", "ys", "ids", "_xl")

    def __init__(self, pts: list[Point], ids: Optional[list[int]] = None):
        xy = np.fromiter(
            chain.from_iterable(pts), dtype=np.float64, count=2 * len(pts)
        ).reshape(len(pts), 2)
        order = np.argsort(xy[:, 0], kind="stable")
        self.xs = xy[order, 0]
        self.ys = xy[order, 1]
        self.ids = order if ids is None else np.asarray(ids, dtype=np.int64)[order]
        #: ``xs`` as floats, for ``bisect`` (a scalar ``searchsorted`` costs more).
        self._xl: list[float] = self.xs.tolist()

    def __len__(self) -> int:
        return len(self._xl)

    def disc(self, centre: Point, radius: float, first: int) -> list[int]:
        """Labels ``>= first`` of the points in the guard-banded circle.

        A superset of the points strictly inside ``(centre, radius)``
        (the same band as :meth:`EntrySnapshot.containment_candidates`),
        ascending by sorted x, not by label.
        """
        cx, cy = centre
        band = radius * _BAND
        w = _slab_halfwidth(cx, band)
        lo = bisect_left(self._xl, cx - w)
        hi = bisect_right(self._xl, cx + w, lo)
        if lo == hi:
            return []
        dx = self.xs[lo:hi] - cx
        dy = self.ys[lo:hi] - cy
        ids = self.ids[lo:hi][dx * dx + dy * dy <= band * band]
        return ids[ids >= first].tolist()
