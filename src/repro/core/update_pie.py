"""Pie-region maintenance (algorithm *updatePie*, Fig. 9-10 of the paper).

The invariant maintained here is the backbone of the whole monitor:
**each sector's candidate is, at every instant, the true constrained NN
of the query in that sector**.  Three cases arise when an object update
touches a pie-region:

1. an object enters a pie-region — it is strictly nearer than the old
   candidate (or the sector was empty), so it *is* the new constrained
   NN: the pie shrinks around it;
2. a candidate leaves its pie-region (changes sector, moves outward, or
   is deleted) — the constrained NN must be re-computed from scratch;
3. a candidate moves within its pie-region (same sector, not farther) —
   it stays the constrained NN; only the radius and circ-region change.

There is one implementation, :func:`_resolve_affected` — the paper's
multiple-update extension (Fig. 10), which subsumes Fig. 9.  A
``process()`` tick feeds it :func:`build_affected_map_vector`'s map of
the whole batch; the single-object API (:func:`handle_update_pies`)
feeds it the one-object map, so a single update *is* the batch of one:
same events, same regions, same logical counters (DESIGN §6).  Every
candidate change determines its circ-region by first trying known
disprovers (the query's other candidates, the demoted candidate, the
previous certificate — :func:`_known_disprover`) and only asks for an NN
search when none of them proves the candidate a false positive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from repro.geometry.point import Point, dist
from repro.geometry.sector import NUM_SECTORS, sector_of
from repro.grid.cpm import NNRequest, nn_search_batch
from repro.core.query_table import QueryState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import CRNNMonitor


def register_pie_cells(monitor: "CRNNMonitor", st: QueryState, sector: int) -> None:
    """Synchronise the grid book-keeping of one pie-region.

    The registration is kept as a *superset* of the pie (always safe:
    extra cells only cost a cheap per-update check) with hysteresis, so
    that a border sector oscillating between empty (unbounded pie) and
    one-object states does not re-register a sixth of the grid on every
    flip.  Growth is always exact; a shrink is applied only when the
    registered radius is at least twice the needed one.
    """
    needed = st.d_cand[sector]
    reg = st.pie_reg_radius[sector]
    if reg >= 0.0:  # already registered once
        if needed <= reg:
            if math.isinf(reg):
                # Keep a whole-sector registration unless the pie got
                # genuinely small; border sectors flip often.
                diag = math.hypot(monitor.grid.bounds.width, monitor.grid.bounds.height)
                if needed >= diag / 8.0:
                    return
            elif needed > reg * 0.5:
                return
        # else: growth (or an accepted shrink) — fall through.
    qid = st.qid
    new_cells = set(monitor.grid.cells_intersecting_pie(st.pos, sector, needed))
    old_cells = st.pie_cells[sector]
    for cell in old_cells - new_cells:
        cell.remove_pie_query(qid, sector)
    for cell in new_cells - old_cells:
        cell.add_pie_query(qid, sector)
    st.pie_cells[sector] = new_cells
    st.pie_reg_radius[sector] = needed


def _known_disprover(
    monitor: "CRNNMonitor",
    st: QueryState,
    sector: int,
    cand: int,
    cand_pos: Point,
    d_q_cand: float,
    extra_known: tuple[tuple[Optional[int], Optional[Point]], ...] = (),
) -> Optional[tuple[int, float]]:
    """The nearest *known* object that disproves a (new) candidate.

    Scans the query's other candidates, anything in ``extra_known``, and
    the previous certificate of this sector; returns ``(nn, nn_dist)`` or
    ``None`` when none of them is strictly nearer to the candidate than
    the query.  In eager mode (Uniform) known objects are never enough —
    the NN search always runs so the circ-region stays tight.
    """
    if monitor.config.eager_nn:
        return None
    grid = monitor.grid
    best: Optional[int] = None
    best_d = math.inf
    known: list[tuple[Optional[int], Optional[Point]]] = list(extra_known)
    for j in range(NUM_SECTORS):
        other = st.cand[j]
        if j != sector and other is not None:
            # A sibling candidate may have been deleted earlier in
            # the same batch (its sector is resolved later).
            known.append((other, grid.positions.get(other)))
    prev = monitor.circ.record(st.qid, sector)
    if prev is not None and prev.nn is not None and prev.nn in grid:
        known.append((prev.nn, grid.positions[prev.nn]))
    for oid, pos in known:
        if oid is None or oid == cand or pos is None:
            continue
        d = dist(cand_pos, pos)
        if d < d_q_cand and d < best_d:
            best, best_d = oid, d
    return (best, best_d) if best is not None else None


def _as_certificate(
    found: Optional[tuple[float, int]], d_q_cand: float
) -> tuple[Optional[int], float]:
    """``(nn, nn_dist)`` from the bounded NN search around a candidate."""
    if found is not None and found[0] < d_q_cand:
        return found[1], found[0]
    return None, math.inf


def _point_pie_at(
    monitor: "CRNNMonitor",
    st: QueryState,
    sector: int,
    cand: Optional[int],
    d_q_cand: float,
) -> None:
    """Make ``cand`` the sector's candidate (``None``: empty, unbounded pie)."""
    st.cand[sector] = cand
    st.d_cand[sector] = d_q_cand
    register_pie_cells(monitor, st, sector)


def handle_update_pies(
    monitor: "CRNNMonitor",
    oid: int,
    old_pos: Optional[Point],
    new_pos: Optional[Point],
) -> None:
    """Apply one object update to every affected query's pie-regions.

    The single update is the batch of one: the affected map is read off
    the two endpoint cells and handed to :func:`_resolve_affected`.
    Must run *after* the grid has been updated (searches see the current
    world) and *before* the circ-region store processes the update.
    """
    affected: dict[int, set[int]] = {}
    for pos in (old_pos, new_pos):
        if pos is not None:
            for qid in monitor.grid.cell_at(pos).pie_queries:
                affected[qid] = {oid}
    if affected:
        _resolve_affected(monitor, affected)


def build_affected_map_vector(
    monitor: "CRNNMonitor", moves: list[tuple[int, Optional[Point], Optional[Point]]]
) -> dict[int, set[int]]:
    """query id -> batch objects whose endpoints touch its pie cells.

    The first step of the paper's multiple-update extension of
    *updatePie*.  Classifies every move endpoint against the grid's
    pie-flag bitmap in one pass; only endpoints landing in a cell that
    carries at least one pie registration consult that cell's query set.
    The flag bitmap is maintained by the cells themselves (flip hooks),
    so an unflagged cell provably has an empty ``pie_queries`` —
    skipping it cannot change the resulting map.
    """
    grid = monitor.grid
    flags = grid._pie_flags
    owners: list[int] = []
    pts: list[Point] = []
    for oid, old_pos, new_pos in moves:
        for pos in (old_pos, new_pos):
            if pos is not None:
                owners.append(oid)
                pts.append(pos)
    affected: dict[int, set[int]] = {}
    if not pts:
        return affected
    xs = np.fromiter((p[0] for p in pts), dtype=np.float64, count=len(pts))
    ys = np.fromiter((p[1] for p in pts), dtype=np.float64, count=len(pts))
    # Same truncate-then-clamp as cell_coords (int() and astype both
    # truncate toward zero for the in-range values that matter here).
    cx = np.clip(
        ((xs - grid.bounds.xmin) / grid._cell_w).astype(np.int64), 0, grid.n - 1
    )
    cy = np.clip(
        ((ys - grid.bounds.ymin) / grid._cell_h).astype(np.int64), 0, grid.n - 1
    )
    flat = cy * grid.n + cx
    hits = np.nonzero(flags[flat])[0]
    monitor.stats.vector_pie_prefilter_hits += len(hits)
    monitor.stats.vector_pie_prefilter_skips += len(pts) - len(hits)
    cells = grid._cells
    for i in hits:
        # A flagged cell is materialized by construction (only a live
        # cell's flip hook can set the flag).
        for qid in cells[int(flat[i])].pie_queries:
            affected.setdefault(qid, set()).add(owners[int(i)])
    return affected


class _CircWrite(NamedTuple):
    """One deferred circ-store write of :func:`_resolve_affected`.

    The circ half of installing or clearing a candidate: queued by
    pass 3, run by pass 5.  ``cand is None`` removes the
    sector's circ-region.  Otherwise the certificate is ``known`` (a
    disprover pass 3 already had) or, when that is ``None``, the answer
    to certificate request number ``asked``.
    """

    qid: int
    sector: int
    cand: Optional[int] = None
    cand_pos: Optional[Point] = None
    d_q_cand: float = math.inf
    known: Optional[tuple[int, float]] = None
    asked: int = -1

    def run(self, circ, certified: list[Optional[tuple[float, int]]]) -> None:
        if self.cand is None:
            circ.remove_circ(self.qid, self.sector)
            return
        if self.known is not None:
            nn, nn_dist = self.known
        else:
            nn, nn_dist = _as_certificate(certified[self.asked], self.d_q_cand)
        circ.set_circ(
            self.qid, self.sector, self.cand, self.cand_pos, self.d_q_cand, nn, nn_dist
        )


def _resolve_affected(
    monitor: "CRNNMonitor", affected: dict[int, set[int]]
) -> None:
    """Grouped pie maintenance for a whole update batch.

    Per affected query, the batch's relevant objects are grouped by
    partition and each pie-region is modified at most once — either by
    one constrained NN re-search (when its candidate moved away or was
    deleted) or by installing the nearest updated object that ended up
    inside it.

    Must run after *all* grid moves of the batch have been applied; every
    decision below reads final positions from the grid.  That frozen
    object set is what lets the searches of the whole tick be answered
    together (two :func:`~repro.grid.cpm.nn_search_batch` calls instead
    of one kernel call per search) without changing any answer:

    * a query's classification reads only its own ``st.cand`` /
      ``st.d_cand``, and no query writes another's;
    * each ``(qid, sector)`` is written at most once;
    * a certificate depends only on ``st.cand``, the demoted candidate,
      the grid and *that sector's own* previous record — never on a circ
      write of this phase — so the circ writes can wait for the
      certificate searches and then run in the original order.
    """
    grid = monitor.grid
    circ = monitor.circ
    positions = grid.positions
    # Pass 1: classify every affected query's updated objects.
    plans: list[tuple[QueryState, list[int], dict[int, tuple[float, int]]]] = []
    researches: list[NNRequest] = []
    for qid in sorted(affected):
        st = monitor.qt.get(qid)
        q = st.pos
        # sector -> tightest known re-search bound (inf = unbounded)
        research: dict[int, float] = {}
        # sector -> nearest updated object now inside the (old) pie
        contenders: dict[int, tuple[float, int]] = {}
        for oid in affected[qid]:
            if oid in st.exclude:
                continue
            cand_sector = st.sector_of_candidate(oid)
            cur = positions.get(oid)
            if cand_sector is not None:
                if cur is None:
                    research.setdefault(cand_sector, math.inf)
                    continue
                s = sector_of(q, cur)
                d = dist(q, cur)
                if s == cand_sector and d <= st.d_cand[cand_sector]:
                    # Case 3 contender: the candidate stayed in its pie.
                    monitor.stats.pie_case3 += 1
                    prev = contenders.get(cand_sector)
                    if prev is None or (d, oid) < prev:
                        contenders[cand_sector] = (d, oid)
                else:
                    monitor.stats.pie_case2 += 1
                    bound = d if s == cand_sector else math.inf
                    research[cand_sector] = min(
                        research.get(cand_sector, math.inf), bound
                    )
                    if s != cand_sector and d < st.d_cand[s]:
                        prev = contenders.get(s)
                        if prev is None or (d, oid) < prev:
                            contenders[s] = (d, oid)
                continue
            if cur is None:
                continue
            s = sector_of(q, cur)
            if st.cand[s] == oid:
                continue
            d = dist(q, cur)
            if d < st.d_cand[s]:
                monitor.stats.pie_case1 += 1
                prev = contenders.get(s)
                if prev is None or (d, oid) < prev:
                    contenders[s] = (d, oid)
        sectors = sorted(research)
        for sector in sectors:
            bound = research[sector]
            contender = contenders.pop(sector, None)
            if contender is not None:
                # Any in-sector updated object bounds the re-search too.
                bound = min(bound, contender[0])
            researches.append((q, sector, st.exclude, bound))
        plans.append((st, sectors, contenders))
    # Pass 2: every constrained re-search of the tick in one call.
    found = iter(nn_search_batch(grid, researches))
    # Pass 3: install candidates and pie cells in the per-query order of
    # the classification.  Circ writes are queued, not run: one whose
    # candidate no known object disproves waits for its certificate.
    writes: list[_CircWrite] = []
    certificates: list[NNRequest] = []

    def install(
        st: QueryState,
        sector: int,
        cand: int,
        d_q_cand: float,
        extra_known: tuple[tuple[Optional[int], Optional[Point]], ...] = (),
    ) -> None:
        cand_pos = positions[cand]
        _point_pie_at(monitor, st, sector, cand, d_q_cand)
        known = _known_disprover(
            monitor, st, sector, cand, cand_pos, d_q_cand, extra_known
        )
        writes.append(
            _CircWrite(st.qid, sector, cand, cand_pos, d_q_cand, known, len(certificates))
        )
        if known is None:
            certificates.append((cand_pos, None, st.exclude | {cand}, d_q_cand))

    for st, sectors, contenders in plans:
        for sector in sectors:
            hit = next(found)
            if hit is None:
                _point_pie_at(monitor, st, sector, None, math.inf)
                writes.append(_CircWrite(st.qid, sector))
            else:
                install(st, sector, hit[1], hit[0])
        for sector in sorted(contenders):
            d, oid = contenders[sector]
            demoted = st.cand[sector]
            extra: tuple[tuple[Optional[int], Optional[Point]], ...] = ()
            if demoted is not None and demoted != oid:
                extra = ((demoted, positions[demoted]),)
            install(st, sector, oid, d, extra)
    # Pass 4: every certificate search pass 3 could not avoid, in one call.
    certified = nn_search_batch(grid, certificates)
    # Pass 5: run the circ writes in the order they were queued.
    for write in writes:
        write.run(circ, certified)
