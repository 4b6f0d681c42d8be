"""CRNN query initialisation (algorithm *initCRNN*, Fig. 7 of the paper).

Computes the six constrained NNs of a query (its *candidates*), a
false-positive certificate for each, and the initial RNN result.

**Output contract** — a pure function of ``(objects, q, exclude)``,
whichever implementation serves the call:

* ``cand[i]`` is sector ``i``'s constrained NN under ``(distance, oid)``
  order (``None``: the sector holds no object);
* ``nn[i]`` is the candidate's NN under ``(distance, oid)`` order among
  the objects strictly nearer to it than the query is — its bounded NN
  within ``d_cand[i]`` — and ``None`` exactly when the candidate is a
  true RNN.

Two bit-identical twins implement it; :func:`init_crnn` dispatches on
the predicate :mod:`repro.grid.cpm` uses for its NN kernels
(``grid.csr_fresh and grid.vector_enabled``):

* :func:`_init_crnn_scalar`, the reference, is the paper's single grid
  traversal — SAE's six-partition filter over CPM's conceptual
  rectangles, so cells are visited at most once, only when necessary,
  and concurrently for all six partitions (Fig. 7 Steps 1-4):

  * **C1** — every heap key is the distance from the query to the part
    of the cell/rectangle inside the *unfinished* partitions;
  * **C2** — entries fully inside finished partitions are skipped;
  * **C3** — a de-heaped entry whose key has expired (the unfinished
    set shrank since it was pushed) is re-inserted with a fresh key
    instead of being expanded.

  Step 3.5's integrated refinement harvests a disprover for a candidate
  from the objects the traversal happens to examine; which one it finds
  depends on the visit order, so it only tightens the *bound* of
  Step 5, which runs one bounded NN search per candidate.

* :func:`repro.perf.kernels.init_crnn_vector` replaces Steps 1-4 by one
  ring-expansion gather over the grid's CSR bucketing and reads Step 5's
  answer from the same gather whenever it covers ``disk(cand, d_cand)``;
  only an uncovered candidate pays Step 5's search.  No ``Cell`` is
  read.

Deviations from the paper (documented in DESIGN.md): a partition is
finished when the key exceeds ``d(q, cand_i)`` — the bound required for
constrained-NN correctness — rather than the circ radius
``d(nn_cand_i, cand_i)``, which can be strictly smaller and would allow
the search to stop before a closer candidate (a potential RNN) is found;
and Step 5 runs for every candidate, not only the never-disproved ones,
which is what makes the certificates order-independent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.geometry.point import Point, dist
from repro.geometry.sector import NUM_SECTORS, sector_of
from repro.geometry.wedge import mindist_rect_in_sectors
from repro.grid.cell import Cell
from repro.grid.cpm import DIRECTIONS, ConceptualSpace, nearest_neighbor
from repro.grid.index import GridIndex
from repro.perf.kernels import init_crnn_vector

_ALL_SECTORS = (1 << NUM_SECTORS) - 1
_KIND_CELL = 0
_KIND_RECT = 1
#: Slack on Step 3.2's "key exceeds the candidate distance": a clipped
#: cell's key can round a few ulp above the true distance to an object on
#: its rim, and an object exactly tied with the candidate must still be
#: visited for the ``(distance, oid)`` order to decide between them.
_FINISH_BAND = 1.0 + 1e-9


@dataclass
class InitResult:
    """Outcome of the initialisation for one query point.

    ``nn[i] is None`` with ``cand[i]`` set means the candidate was
    confirmed as a true RNN (no object strictly nearer than the query).
    """

    cand: list[Optional[int]] = field(default_factory=lambda: [None] * NUM_SECTORS)
    d_cand: list[float] = field(default_factory=lambda: [math.inf] * NUM_SECTORS)
    nn: list[Optional[int]] = field(default_factory=lambda: [None] * NUM_SECTORS)
    d_nn: list[float] = field(default_factory=lambda: [math.inf] * NUM_SECTORS)

    def rnns(self) -> set[int]:
        """Candidates confirmed as reverse nearest neighbours."""
        return {
            c
            for c, n in zip(self.cand, self.nn)
            if c is not None and n is None
        }


def init_crnn(
    grid: GridIndex,
    q: Point,
    exclude: frozenset[int] = frozenset(),
) -> InitResult:
    """Run *initCRNN* for query point ``q`` over the grid's objects.

    Served by the vectorized kernel when the grid's CSR bucketing is
    fresh, else by the heap traversal; the result is the same (see the
    module docstring for the contract).
    """
    if grid.csr_fresh and grid.vector_enabled:
        return _init_crnn_vector(grid, q, exclude)
    return _init_crnn_scalar(grid, q, exclude)


def _certify(grid: GridIndex, res: InitResult, sector: int, exclude: frozenset[int]) -> None:
    """Step 5 for one candidate: its bounded NN becomes the certificate.

    Whatever ``res.d_nn[sector]`` holds on entry is only a search bound
    (some disprover is known at that distance).
    """
    c = res.cand[sector]
    found = nearest_neighbor(
        grid,
        grid.positions[c],
        exclude=exclude | {c},
        max_dist=min(res.d_cand[sector], res.d_nn[sector]),
    )
    if found is not None and found[0] < res.d_cand[sector]:
        res.d_nn[sector], res.nn[sector] = found
    else:
        res.nn[sector] = None
        res.d_nn[sector] = math.inf


def _init_crnn_vector(grid: GridIndex, q: Point, exclude: frozenset[int]) -> InitResult:
    """:func:`init_crnn` through :func:`repro.perf.kernels.init_crnn_vector`."""
    cand, d_cand, nn, d_nn, uncovered = init_crnn_vector(grid, q, exclude)
    res = InitResult(cand, d_cand, nn, d_nn)
    tracer = grid.tracer
    for sector in range(NUM_SECTORS):
        if cand[sector] is None:
            continue
        if sector in uncovered:
            _certify(grid, res, sector, exclude)
            continue
        # A certificate read from the gather is one bounded NN
        # evaluation: counted and traced like the search it replaces, so
        # logical counters and span counts do not depend on the twin.
        grid.stats.nn_searches += 1
        if tracer.enabled:
            with tracer.span("cpm.nn_search", k=1) as sp:
                sp.set("found", int(nn[sector] is not None))
    return res


def _init_crnn_scalar(grid: GridIndex, q: Point, exclude: frozenset[int]) -> InitResult:
    """Reference scalar twin of :func:`init_crnn` (heap traversal, Fig. 7)."""
    res = InitResult()
    cand_pos: list[Optional[Point]] = [None] * NUM_SECTORS
    unfinished = _ALL_SECTORS

    space = ConceptualSpace(grid, q)
    counter = itertools.count()
    # Heap entries: (key, tiebreak, kind, payload, mask_at_push)
    heap: list[tuple[float, int, int, object, int]] = []

    def push_cell(cell: Cell, mask: int) -> None:
        key = mindist_rect_in_sectors(q, cell.rect, mask)
        if not math.isinf(key):
            heapq.heappush(heap, (key, next(counter), _KIND_CELL, cell, mask))

    def push_rect(direction: str, level: int, mask: int) -> None:
        bounds = space.rect_bounds(direction, level)
        if bounds is None:
            return
        key = mindist_rect_in_sectors(q, bounds, mask)
        chain_only = math.isinf(key)
        if chain_only:
            # The strip misses every unfinished sector at this level (so
            # none of its cells can either), but a longer strip of the
            # same direction may re-enter one; keep the chain alive with
            # the plain mindist as a conservative key.
            key = bounds.mindist(q)
        heapq.heappush(
            heap, (key, next(counter), _KIND_RECT, (direction, level, chain_only), mask)
        )

    def visit_cell(cell: Cell) -> None:
        nonlocal unfinished
        grid.stats.cells_visited += 1
        for oid in cell.objects:
            if oid in exclude:
                continue
            pos = grid.positions[oid]
            # Step 3.5 (1): use the object to disprove existing candidates.
            for j in range(NUM_SECTORS):
                cj = res.cand[j]
                if cj is None or cj == oid:
                    continue
                d = dist(pos, cand_pos[j])  # type: ignore[arg-type]
                if d < res.d_cand[j] and d < res.d_nn[j]:
                    res.d_nn[j] = d
            # Step 3.5 (2): maybe the object is a better candidate.
            d_oq = dist(q, pos)
            s = sector_of(q, pos)
            demoted = res.cand[s]
            if demoted is None or (d_oq, oid) < (res.d_cand[s], demoted):
                demoted_pos = cand_pos[s]
                res.cand[s] = oid
                res.d_cand[s] = d_oq
                cand_pos[s] = pos
                res.d_nn[s] = math.inf
                # Seed the bound from known objects: the other
                # candidates plus the candidate this object just demoted.
                for j in range(NUM_SECTORS):
                    other = res.cand[j] if j != s else demoted
                    other_pos = cand_pos[j] if j != s else demoted_pos
                    if other is None or other == oid:
                        continue
                    d = dist(pos, other_pos)  # type: ignore[arg-type]
                    if d < d_oq and d < res.d_nn[s]:
                        res.d_nn[s] = d

    push_cell(space.center_cell(), unfinished)
    for direction in DIRECTIONS:
        push_rect(direction, 0, unfinished)

    while heap and unfinished:
        key, _, kind, payload, mask = heapq.heappop(heap)
        grid.stats.heap_pops += 1
        # Step 3.2: finish partitions whose candidate is provably final.
        for i in range(NUM_SECTORS):
            if unfinished & (1 << i) and key > res.d_cand[i] * _FINISH_BAND:
                unfinished &= ~(1 << i)
        if not unfinished:
            break
        # Step 3.3 (C3): refresh expired keys instead of expanding.
        if kind == _KIND_CELL:
            if mask != unfinished:
                cell: Cell = payload  # type: ignore[assignment]
                cur = mindist_rect_in_sectors(q, cell.rect, unfinished)
                if math.isinf(cur):
                    continue  # C2: fully inside finished partitions
                if cur > key:
                    heapq.heappush(
                        heap, (cur, next(counter), _KIND_CELL, cell, unfinished)
                    )
                    continue
            visit_cell(payload)  # type: ignore[arg-type]
        else:
            direction, level, chain_only = payload  # type: ignore[misc]
            if not chain_only and mask != unfinished:
                bounds = space.rect_bounds(direction, level)
                assert bounds is not None
                cur = mindist_rect_in_sectors(q, bounds, unfinished)
                if math.isinf(cur):
                    # The strip left the unfinished set: its cells are
                    # useless, but the chain must stay alive.
                    chain_only = True
                elif cur > key:
                    heapq.heappush(
                        heap,
                        (
                            cur,
                            next(counter),
                            _KIND_RECT,
                            (direction, level, False),
                            unfinished,
                        ),
                    )
                    continue
            if not chain_only:
                for cell in space.cells_of(direction, level):
                    push_cell(cell, unfinished)
            push_rect(direction, level + 1, unfinished)

    # Step 5: every candidate's certificate is its bounded NN.
    for i in range(NUM_SECTORS):
        if res.cand[i] is not None:
            _certify(grid, res, i, exclude)
    return res
