"""Circ-region storage and maintenance (Section 5.2 of the paper).

A *circ-region* belongs to one ``(query, sector)`` pair.  It is a circle
centred at that sector's candidate whose perimeter carries either

* the query point itself — the candidate is currently a true RNN — or
* some object ``nn_cand`` strictly nearer to the candidate than the
  query — a standing *certificate* that the candidate is a false
  positive (the certificate need not be the candidate's true NN; that
  slack is what the lazy-update optimisation exploits).

This module provides the base bookkeeping shared by all variants
(:class:`CircStoreBase`: records, result-change events) and the paper's
store (:class:`FurCircStore`): one global circle table over all
candidates, each circle carrying the max radius of the candidate's
memberships (the paper keeps these circles in a FUR-tree; DESIGN §2
"Substitutions" says why a persistent array table replaces it here), an
**NN-Hash** from each certificate object to the circ-regions it
supports, and the **partial-insert** side hash for circles whose radius
is below the threshold fraction of the candidate-query distance.

``handle_update`` implements algorithm *updateCirc* (Fig. 13) with the
**lazy-update** optimisation: when a certificate object moves but the
enlarged circle still does not reach the query, only the radius is
updated — no NN search.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.health import QueryHealthTracker

from repro.core.events import ResultChange
from repro.core.query_table import QueryTable
from repro.core.stats import StatCounters
from repro.geometry.circle import Circle
from repro.geometry.point import Point, dist
from repro.geometry.sector import NUM_SECTORS
from repro.grid.cpm import nearest_neighbor
from repro.grid.index import GridIndex
from repro.perf.kernels import EntrySnapshot, PointSweep

EmitFn = Callable[[ResultChange], None]


class CircRecord:
    """Live state of one circ-region.

    ``in_fur`` says whether the circle is in the store's containment
    index (the paper's FUR-tree, here :class:`FurCircStore`'s circle
    table); partial-insert keeps small circles out of it.
    """

    __slots__ = ("qid", "sector", "cand", "d_q_cand", "nn", "radius", "in_fur")

    def __init__(
        self,
        qid: int,
        sector: int,
        cand: int,
        d_q_cand: float,
        nn: Optional[int],
        radius: float,
    ):
        self.qid = qid
        self.sector = sector
        self.cand = cand
        self.d_q_cand = d_q_cand
        self.nn = nn
        self.radius = radius
        self.in_fur = False

    @property
    def is_rnn(self) -> bool:
        """Whether the candidate is currently a reverse NN (no disprover)."""
        return self.nn is None

    def circle(self, cand_pos: Point) -> Circle:
        """The circ-region circle: centred on the candidate, this radius."""
        return Circle(cand_pos, self.radius)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "RNN" if self.is_rnn else f"FP(nn=o{self.nn})"
        return (
            f"CircRecord(q{self.qid}/S{self.sector}, cand=o{self.cand}, "
            f"r={self.radius:.4g}, {status})"
        )


class CircStoreBase:
    """Record keeping and result-change events common to every variant."""

    def __init__(
        self,
        grid: GridIndex,
        query_table: QueryTable,
        stats: StatCounters,
        emit: EmitFn,
    ):
        self.grid = grid
        self.qt = query_table
        self.stats = stats
        self.emit = emit
        #: Per-query health tracker (:mod:`repro.obs.health`); ``None``
        #: unless the monitor's observability diagnostics are enabled.
        #: Purely additive accounting — never influences behaviour.
        self.health: Optional["QueryHealthTracker"] = None
        self._records: dict[tuple[int, int], CircRecord] = {}
        #: Sequence number of the move currently being processed, set by
        #: :meth:`process_moves` (or by a caller driving
        #: :meth:`handle_update` directly).  Pure bookkeeping for event
        #: attribution — the sharded engine (:mod:`repro.shard`) uses it
        #: to merge per-shard event streams back into the single-monitor
        #: order.  Never influences behaviour.
        self.move_seq: int = 0
        #: Where inside *updateCirc* the store currently is, for the
        #: same event-attribution purpose: ``(0, qid, sector)`` while
        #: step 1 handles that record, ``(1, cand, qid, sector)`` while
        #: step 2 shrinks that record, ``()`` otherwise.
        self.emit_ctx: tuple[int, ...] = ()

    # -- public record access ------------------------------------------
    def record(self, qid: int, sector: int) -> Optional[CircRecord]:
        """The circ record of ``(qid, sector)``, or ``None`` if vacant."""
        return self._records.get((qid, sector))

    def records_of_query(self, qid: int) -> list[CircRecord]:
        """Every sector's circ record belonging to query ``qid``, in sector order."""
        records = (self._records.get((qid, sector)) for sector in range(NUM_SECTORS))
        return [r for r in records if r is not None]

    def rnn_set(self, qid: int) -> frozenset[int]:
        """The current RNN result of ``qid`` derived from its records."""
        return frozenset(r.cand for r in self.records_of_query(qid) if r.is_rnn)

    def __len__(self) -> int:
        return len(self._records)

    # -- mutation --------------------------------------------------------
    def set_circ(
        self,
        qid: int,
        sector: int,
        cand: int,
        cand_pos: Point,
        d_q_cand: float,
        nn: Optional[int],
        nn_dist: float = math.nan,
    ) -> CircRecord:
        """Create or replace the circ-region of ``(qid, sector)``.

        ``nn is None`` declares the candidate a true RNN (radius is the
        candidate-query distance); otherwise ``nn_dist`` is the distance
        from the candidate to the certificate object.
        Emits result-change events for any RNN-status transition.
        """
        key = (qid, sector)
        old = self._records.get(key)
        radius = d_q_cand if nn is None else nn_dist
        rec = CircRecord(qid, sector, cand, d_q_cand, nn, radius)
        self._emit_transition(qid, old, rec)
        self._replace(key, old, rec, cand_pos)
        return rec

    def remove_circ(self, qid: int, sector: int) -> None:
        """Drop the circ-region of ``(qid, sector)`` (e.g. sector emptied)."""
        key = (qid, sector)
        old = self._records.pop(key, None)
        if old is None:
            return
        self._emit_transition(qid, old, None)
        self._replace(key, old, None, None)

    def _emit_transition(
        self, qid: int, old: Optional[CircRecord], new: Optional[CircRecord]
    ) -> None:
        old_rnn = old.cand if (old is not None and old.is_rnn) else None
        new_rnn = new.cand if (new is not None and new.is_rnn) else None
        if old_rnn == new_rnn:
            return
        if old_rnn is not None:
            self.stats.result_changes += 1
            self.emit(ResultChange(qid, old_rnn, gained=False))
        if new_rnn is not None:
            self.stats.result_changes += 1
            self.emit(ResultChange(qid, new_rnn, gained=True))

    # -- subclass hooks ----------------------------------------------------
    def _replace(
        self,
        key: tuple[int, int],
        old: Optional[CircRecord],
        new: Optional[CircRecord],
        cand_pos: Optional[Point],
    ) -> None:
        raise NotImplementedError

    def handle_update(
        self, oid: int, old_pos: Optional[Point], new_pos: Optional[Point]
    ) -> None:
        """Process one object location update against the circ-regions."""
        raise NotImplementedError

    def process_moves(
        self,
        moves: list[tuple[int, Optional[Point], Optional[Point]]],
        seq: Optional[list[int]] = None,
    ) -> None:
        """Process a batch of updates; stores may override with a batched
        fast path that is event-for-event identical to this loop.

        ``seq`` optionally supplies a global sequence number per move
        (defaults to the position in ``moves``); it is exposed through
        :attr:`move_seq` for event attribution only.
        """
        for i, (oid, old_pos, new_pos) in enumerate(moves):
            self.move_seq = seq[i] if seq is not None else i
            self.handle_update(oid, old_pos, new_pos)

    # -- shared helpers ----------------------------------------------------
    def _exclusions(self, rec: CircRecord) -> set[int]:
        """Objects a disprover search around ``rec.cand`` must ignore."""
        excl = set(self.qt.get(rec.qid).exclude)
        excl.add(rec.cand)
        return excl

    def _recompute_certificate(
        self, rec: CircRecord, cand_pos: Point, cause: str = "certificate_escaped"
    ) -> None:
        """NN-search for a fresh certificate; flips RNN status as needed.

        Called when the previous certificate is gone (its object moved
        out far enough that the enlarged circle would cover the query,
        or it was deleted); ``cause`` labels the event in the query's
        health record.
        """
        self.stats.circ_nn_searches_triggered += 1
        if self.health is not None:
            self.health.record_certificate_recompute(rec.qid, cause)
        with self.grid.tracer.span(
            "circ.recompute_certificate", qid=rec.qid, sector=rec.sector
        ):
            found = nearest_neighbor(
                self.grid, cand_pos, exclude=self._exclusions(rec), max_dist=rec.d_q_cand
            )
        if found is not None and found[0] < rec.d_q_cand:
            nn_dist, nn = found
            self.set_circ(
                rec.qid, rec.sector, rec.cand, cand_pos, rec.d_q_cand, nn, nn_dist
            )
        else:
            self.set_circ(rec.qid, rec.sector, rec.cand, cand_pos, rec.d_q_cand, None)


class FurCircStore(CircStoreBase):
    """The paper's circ-region store: circle table + NN-Hash (+ partial-insert).

    ``threshold`` is the partial-insert fraction: a circ-region enters
    the circle table only when its radius is at least ``threshold *
    d(q, cand)``; smaller circles live only in the record hash and are
    invisible to containment queries (which is safe — a missed
    containment hit could only have *shrunk* an already-valid false
    positive certificate).  ``threshold = 0`` disables partial-insert
    (the LU-only variant).
    """

    def __init__(
        self,
        grid: GridIndex,
        query_table: QueryTable,
        stats: StatCounters,
        emit: EmitFn,
        threshold: float = 0.0,
    ):
        super().__init__(grid, query_table, stats, emit)
        self.threshold = threshold
        #: The containment index: one circle per candidate with at least
        #: one membership in the table, its radius the max over those
        #: memberships, patched in place by :meth:`_refresh_candidate`.
        self.circles = EntrySnapshot()
        #: NN-Hash: certificate object id -> circ-regions it supports.
        self.nn_hash: dict[int, set[tuple[int, int]]] = {}
        #: candidate object id -> its circ-region keys (a candidate may
        #: serve several queries; the circle table holds one circle per
        #: candidate whose radius aggregates the in-table memberships).
        self.by_cand: dict[int, set[tuple[int, int]]] = {}
        #: The running batched ``process_moves`` (its escape and visit
        #: bookkeeping); ``None`` outside it.
        self._tick: Optional[_CircTick] = None

    # ------------------------------------------------------------------
    # Record replacement (updateCand, Fig. 12)
    # ------------------------------------------------------------------
    def _replace(
        self,
        key: tuple[int, int],
        old: Optional[CircRecord],
        new: Optional[CircRecord],
        cand_pos: Optional[Point],
    ) -> None:
        touched_cands: set[int] = set()
        if old is not None:
            if old.nn is not None:
                members = self.nn_hash.get(old.nn)
                if members is not None:
                    members.discard(key)
                    if not members:
                        del self.nn_hash[old.nn]
            cand_keys = self.by_cand.get(old.cand)
            if cand_keys is not None:
                cand_keys.discard(key)
                if not cand_keys:
                    del self.by_cand[old.cand]
            touched_cands.add(old.cand)
        if new is not None:
            self._records[key] = new
            self.by_cand.setdefault(new.cand, set()).add(key)
            if new.nn is not None:
                members = self.nn_hash.get(new.nn)
                if members is None:
                    members = self.nn_hash[new.nn] = set()
                    if self._tick is not None:
                        self._tick.joined_nn_hash(new.nn)
                members.add(key)
            touched_cands.add(new.cand)
        else:
            self._records.pop(key, None)
        # Sorted for a deterministic refresh order: the scalar and
        # batched update paths must build identical table/hash histories.
        for cand in sorted(touched_cands):
            pos = cand_pos if (new is not None and cand == new.cand) else None
            self._refresh_candidate(cand, pos)

    def _refresh_candidate(self, cand: int, cand_pos: Optional[Point]) -> None:
        """Synchronise the circle of ``cand`` with its memberships.

        Recomputes which memberships qualify for the circle table
        (partial insert), the aggregated radius and the centre, then
        patches ``cand``'s slot in place — or drops it when no
        membership qualifies.
        """
        keys = self.by_cand.get(cand, ())
        max_radius = 0.0
        any_in_fur = False
        for k in keys:
            rec = self._records[k]
            rec.in_fur = rec.radius >= self.threshold * rec.d_q_cand
            if rec.in_fur:
                any_in_fur = True
                if rec.radius > max_radius:
                    max_radius = rec.radius
            else:
                self.stats.partial_insert_hash_hits += 1
        circles = self.circles
        if not any_in_fur:
            circles.remove(cand)
            return
        if cand_pos is None:
            cand_pos = self.grid.positions.get(cand)
            if cand_pos is None:
                # Transient state while a deleted candidate's remaining
                # memberships are being re-assigned: keep the stale
                # centre, the circle disappears once they are gone.
                known = circles.get(cand)
                if known is None:
                    return
                cand_pos = known[0]
        if self._tick is not None:
            self._tick.circle_put(cand, cand_pos, max_radius, circles)
        circles.put(cand, cand_pos, max_radius)

    # ------------------------------------------------------------------
    # updateCirc (Fig. 13) with lazy-update
    # ------------------------------------------------------------------
    def handle_update(
        self, oid: int, old_pos: Optional[Point], new_pos: Optional[Point]
    ) -> None:
        """updateCirc for one object update (Fig. 13, steps 1 and 2)."""
        self._step1(oid, new_pos)
        # Step 2: circ-regions the new location has entered (containment
        # query on the circle table; shrinks circles, may kill RNN status).
        if new_pos is None:
            return
        self.stats.containment_queries += 1
        # Ascending candidate order — the batched path discovers the
        # same hits from a tick-wide sweep and must replay them in the
        # same order to emit an identical event stream.
        for cand, cand_pos in self.circles.containment_search(new_pos):
            if cand != oid:
                self._step2_entry(oid, new_pos, cand, cand_pos)

    def _step1(self, oid: int, new_pos: Optional[Point]) -> None:
        """Circ-regions whose certificate is the moving object."""
        keys = self.nn_hash.get(oid)
        if not keys:
            return
        for key in sorted(keys):
            self.emit_ctx = (0, key[0], key[1])
            rec = self._records[key]
            cand_pos = self.grid.positions[rec.cand]
            if new_pos is not None:
                new_d = dist(new_pos, cand_pos)
                if new_d < rec.d_q_cand:
                    # Lazy-update: the certificate still holds; adjust
                    # the radius without any NN search.
                    self.stats.circ_lazy_radius_updates += 1
                    if self.health is not None:
                        self.health.record_lazy_deferral(rec.qid)
                    self._adjust_radius(rec, cand_pos, new_d)
                    continue
            # The enlarged circle would cover the query (or the
            # certificate object is gone): only now search for a new NN.
            self._recompute_certificate(
                rec,
                cand_pos,
                cause=(
                    "certificate_escaped" if new_pos is not None else "certificate_deleted"
                ),
            )

    def _step2_entry(self, oid: int, new_pos: Point, cand: int, cand_pos: Point) -> None:
        """Shrink the circ-regions of one candidate circle that ``oid`` entered."""
        for key in sorted(self.by_cand.get(cand, ())):
            self.emit_ctx = (1, cand, key[0], key[1])
            rec = self._records.get(key)
            if rec is None:
                continue
            if rec.nn == oid or not rec.in_fur:
                continue
            if oid in self.qt.get(rec.qid).exclude:
                continue
            new_d = dist(new_pos, cand_pos)
            if new_d < rec.radius:
                if self.health is not None:
                    self.health.record_containment_shrink(rec.qid)
                self.set_circ(
                    rec.qid, rec.sector, rec.cand, cand_pos,
                    rec.d_q_cand, oid, new_d,
                )

    def process_moves(
        self,
        moves: list[tuple[int, Optional[Point], Optional[Point]]],
        seq: Optional[list[int]] = None,
    ) -> None:
        """Batched *updateCirc*: same per-move semantics, visiting only movers with work.

        Step 2's candidate discovery is one sort-and-sweep of the circle
        table over the batch's new positions
        (:meth:`EntrySnapshot.batch_containment_candidates`), computed
        once at the start.  A circle put later that is new, re-centred or
        grown past the extent last looked up for it *escapes* that sweep:
        it is looked up again over the movers still to come
        (:class:`_CircTick`) and its hits join their candidate sets.  A
        shrunk circle needs nothing — the earlier lookup covers it.

        Only movers with work are visited, in ascending move index: those
        in NN-Hash (at the start, or on joining it mid-batch) and those
        with a candidate.  Each runs step 1 and step 2 exactly as
        :meth:`handle_update` would, re-checking every candidate against
        the *current* circle with the exact open predicate in ascending
        oid order — so the hits, their order and the emitted events are
        those of the scalar loop.  Any other mover would find no NN-Hash
        entry and no circle, so skipping it changes nothing but the
        ``containment_queries`` count, which is added for every move with
        a new position.  A store without records (a monitor's initial
        load) does only that.
        """
        stats = self.stats
        pts = [new_pos for _, _, new_pos in moves if new_pos is not None]
        stats.containment_queries += len(pts)
        if not self._records:
            # No records, no circle and no NN-Hash entry, and nothing on
            # this path creates one.
            return
        circles = self.circles
        # Sweep labels are move indices (a point's own index when every
        # move has a new position).
        at = None
        if len(pts) < len(moves):
            at = [i for i, (_, _, new_pos) in enumerate(moves) if new_pos is not None]
        sweep = PointSweep(pts, at)
        cands = circles.batch_containment_candidates(sweep)
        stats.vector_containment_batches += 1
        nn_hash = self.nn_hash
        heap = sorted(cands.keys() | {i for i, m in enumerate(moves) if m[0] in nn_hash})
        tick = self._tick = _CircTick(moves, sweep, cands, heap)
        try:
            while heap:
                i = heappop(heap)
                oid, _, new_pos = moves[i]
                self.move_seq = seq[i] if seq is not None else i
                # Escapes raised by step 1 reach this mover's step 2; those
                # raised by step 2 start at the next mover.
                tick.cur = tick.first = i
                self._step1(oid, new_pos)
                tick.first = i + 1
                row = cands.pop(i, None)
                if row is None or new_pos is None:
                    continue
                for cand in sorted(set(row)):
                    if cand == oid:
                        continue
                    stats.vector_containment_candidates += 1
                    circle = circles.get(cand)
                    if circle is not None and dist(new_pos, circle[0]) < circle[1]:
                        self._step2_entry(oid, new_pos, cand, circle[0])
        finally:
            self._tick = None

    def _adjust_radius(self, rec: CircRecord, cand_pos: Point, new_radius: float) -> None:
        """Radius-only change of a record (certificate object moved)."""
        rec.radius = new_radius
        self._refresh_candidate(rec.cand, cand_pos)

    # ------------------------------------------------------------------
    # Validation (used by tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural invariants of records vs circle table; raises ``AssertionError``."""
        circles = self.circles
        circles.validate()
        expected_in_table: set[int] = set()
        for key, rec in self._records.items():
            assert key == (rec.qid, rec.sector), "record key mismatch"
            assert rec.radius <= rec.d_q_cand + 1e-9
            if rec.is_rnn:
                assert rec.radius == rec.d_q_cand
            else:
                assert rec.nn in self.grid, "certificate object vanished"
                assert key in self.nn_hash.get(rec.nn, set())
            assert key in self.by_cand.get(rec.cand, set())
            if rec.in_fur:
                expected_in_table.add(rec.cand)
        table_ids = set(circles.slot)
        assert expected_in_table == table_ids, (
            f"circle table contents diverge: {expected_in_table ^ table_ids}"
        )
        for cand, i in circles.slot.items():
            assert circles.pos[i] == self.grid.positions[cand], "stale circle centre"
            radii = [
                self._records[k].radius
                for k in self.by_cand[cand]
                if self._records[k].in_fur
            ]
            assert circles.radii[i] == max(radii), "stale aggregated radius"
        for nn, keys in self.nn_hash.items():
            for key in keys:
                assert self._records[key].nn == nn


class _CircTick:
    """Visit queue and escape bookkeeping of one batched ``process_moves``.

    ``cands`` maps a move index to the circle oids its step 2 must
    re-check; ``heap`` holds the move indices still to visit (``queued``
    marks every index ever pushed, so none is visited twice).  ``cur`` is
    the move being visited and ``first`` the lowest move index an escape
    may still reach: ``cur`` during its step 1, ``cur + 1`` from its
    step 2 on.  ``swept`` holds, per circle put during the batch, the
    extent last looked up over the movers (its extent at the start, when
    the batch prefilter covered it), ``None`` when it had none.
    """

    __slots__ = (
        "moves", "sweep", "cands", "heap", "queued", "cur", "first", "swept", "_last", "_prev",
    )

    def __init__(
        self,
        moves: list[tuple[int, Optional[Point], Optional[Point]]],
        sweep: PointSweep,
        cands: dict[int, list[int]],
        heap: list[int],
    ):
        self.moves = moves
        self.sweep = sweep
        self.cands = cands
        self.heap = heap
        self.queued = bytearray(len(moves))
        for i in heap:
            self.queued[i] = 1
        self.cur = -1
        self.first = 0
        self.swept: dict[int, Optional[tuple[Point, float]]] = {}
        #: oid -> its last move index, and each move's previous move of
        #: the same oid (``None`` when no oid moves twice); built on the
        #: first :meth:`joined_nn_hash`.
        self._last: Optional[dict[int, int]] = None
        self._prev: Optional[list[int]] = None

    def _queue(self, i: int) -> None:
        if not self.queued[i]:
            self.queued[i] = 1
            heappush(self.heap, i)

    def circle_put(
        self, cand: int, centre: Point, radius: float, table: EntrySnapshot
    ) -> None:
        """``cand``'s circle is about to become ``(centre, radius)`` in ``table``.

        Unless the extent last looked up for it has the same centre and a
        radius at least as large, look the new extent up over the movers
        from :attr:`first` on and add ``cand`` to each hit's candidates.
        """
        swept = self.swept
        if cand in swept:
            last = swept[cand]
        else:
            # First put of the batch: the table still holds the extent the
            # batch prefilter swept.
            last = swept[cand] = table.get(cand)
        if last is not None and last[0] == centre and radius <= last[1]:
            return
        swept[cand] = (centre, radius)
        cands = self.cands
        for i in self.sweep.disc(centre, radius, self.first):
            row = cands.get(i)
            if row is None:
                cands[i] = [cand]
            else:
                row.append(cand)
            self._queue(i)

    def joined_nn_hash(self, oid: int) -> None:
        """``oid`` just became a certificate: queue its moves after :attr:`cur`."""
        if self._last is None:
            oids = [m[0] for m in self.moves]
            self._last = dict(zip(oids, range(len(oids))))
            if len(self._last) < len(oids):
                self._prev = prev = [-1] * len(oids)
                seen: dict[int, int] = {}
                for i, o in enumerate(oids):
                    prev[i] = seen.get(o, -1)
                    seen[o] = i
        i = self._last.get(oid, -1)
        while i > self.cur:
            self._queue(i)
            i = self._prev[i] if self._prev is not None else -1
