"""Unit tests for the circle-table circ-region store (NN-Hash, partial-insert)."""

import pytest

from repro.core.circ_store import CircStoreBase, FurCircStore
from repro.core.events import ResultChange
from repro.core.query_table import QueryTable
from repro.core.stats import StatCounters, logical_subset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.grid.index import GridIndex
from repro.perf.kernels import PointSweep
from repro.rtree.furtree import FURTree

from .test_exactness import check, golden, single, unbatched

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


class _Rig:
    """A minimal harness around a FurCircStore."""

    def __init__(self, threshold: float = 0.0):
        self.stats = StatCounters()
        self.grid = GridIndex(BOUNDS, 8, self.stats)
        self.qt = QueryTable()
        self.events: list[ResultChange] = []
        self.store = FurCircStore(
            self.grid, self.qt, self.stats, self.events.append, threshold=threshold
        )

    def object(self, oid: int, x: float, y: float) -> Point:
        p = Point(x, y)
        self.grid.insert_object(oid, p)
        return p

    def query(self, qid: int, x: float, y: float):
        return self.qt.add(qid, Point(x, y))


class TestSetAndRemove:
    def test_rnn_record_emits_gain(self):
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        pos = rig.object(1, 100.0, 100.0)
        rig.store.set_circ(50, 0, 1, pos, 100.0, None)
        assert rig.events == [ResultChange(50, 1, gained=True)]
        assert rig.store.rnn_set(50) == frozenset({1})
        rec = rig.store.record(50, 0)
        assert rec.is_rnn and rec.radius == 100.0
        rig.store.validate()

    def test_false_positive_record_silent(self):
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        pos = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        rig.store.set_circ(50, 0, 1, pos, 100.0, 2, 10.0)
        assert rig.events == []
        assert rig.store.rnn_set(50) == frozenset()
        assert (50, 0) in rig.store.nn_hash[2]
        rig.store.validate()

    def test_replacement_emits_transition(self):
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        p2 = rig.object(2, 110.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, None)
        rig.store.set_circ(50, 0, 2, p2, 90.0, None)  # candidate replaced
        assert rig.events == [
            ResultChange(50, 1, gained=True),
            ResultChange(50, 1, gained=False),
            ResultChange(50, 2, gained=True),
        ]
        rig.store.validate()

    def test_remove_emits_loss(self):
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        pos = rig.object(1, 100.0, 100.0)
        rig.store.set_circ(50, 0, 1, pos, 100.0, None)
        rig.store.remove_circ(50, 0)
        assert rig.events[-1] == ResultChange(50, 1, gained=False)
        assert rig.store.record(50, 0) is None
        assert len(rig.store) == 0
        rig.store.validate()

    def test_remove_missing_is_noop(self):
        rig = _Rig()
        rig.store.remove_circ(99, 3)
        assert rig.events == []


class _KeyedOnly(dict):
    """A record table that refuses to be scanned."""

    def _scan(self, *args):
        raise AssertionError("records_of_query scanned the whole record table")

    __iter__ = keys = values = items = _scan


class TestRecordsOfQuery:
    def test_keyed_lookups_match_the_full_scan(self):
        # 30 queries with records scattered over the sectors (one of them
        # with none at all): the six keyed lookups must return what the
        # scan over every record did, in sector order, without ever
        # iterating the table — rnn_set runs once per query in
        # validate() and in the verified checkpoint restore.
        rig = _Rig()
        for qid in range(50, 80):
            rig.query(qid, 200.0, 100.0 + qid)
            for sector in range(6):
                if (qid * 7 + sector) % 3 == 0 or qid == 60:
                    continue
                oid = qid * 10 + sector
                pos = rig.object(oid, 10.0 * sector + 5.0, float(qid))
                rig.store.set_circ(qid, sector, oid, pos, 50.0, None if sector % 2 else oid + 1, 20.0)
        scanned = {
            qid: sorted(
                (r for (q, _s), r in rig.store._records.items() if q == qid),
                key=lambda r: r.sector,
            )
            for qid in range(50, 81)
        }
        assert sum(map(len, scanned.values())) == len(rig.store) > 60
        rig.store._records = _KeyedOnly(rig.store._records)
        for qid, want in scanned.items():
            got = rig.store.records_of_query(qid)
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
            assert rig.store.rnn_set(qid) == frozenset(r.cand for r in want if r.is_rnn)
        assert scanned[60] == scanned[80] == []


class TestSharedCandidates:
    def test_candidate_serving_two_queries(self):
        """One object candidate for two queries: one circle, max radius."""
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        rig.query(51, 100.0, 180.0)
        pos = rig.object(1, 100.0, 100.0)
        rig.object(2, 130.0, 100.0)
        rig.store.set_circ(50, 0, 1, pos, 100.0, 2, 30.0)
        rig.store.set_circ(51, 4, 1, pos, 80.0, None)
        assert rig.store.circles.get(1) == (pos, 80.0)  # max(30, 80)
        rig.store.remove_circ(51, 4)
        assert rig.store.circles.get(1) == (pos, 30.0)
        rig.store.remove_circ(50, 0)
        assert 1 not in rig.store.circles
        rig.store.validate()


class TestLazyUpdate:
    def test_certificate_moves_but_still_valid(self):
        """No NN search while the enlarged circle stays short of q."""
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
        before = rig.stats.nn_searches
        old = rig.grid.positions[2]
        new = Point(150.0, 100.0)
        rig.grid.move_object(2, new)
        rig.store.handle_update(2, old, new)
        assert rig.stats.nn_searches == before  # lazy: no search
        assert rig.store.record(50, 0).radius == 50.0
        assert rig.stats.circ_lazy_radius_updates == 1
        rig.store.validate()

    def test_certificate_escapes_triggers_search(self):
        """The circle would cover q: now an NN search must run."""
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
        old = rig.grid.positions[2]
        new = Point(600.0, 600.0)  # farther from o1 than q is
        rig.grid.move_object(2, new)
        rig.store.handle_update(2, old, new)
        rec = rig.store.record(50, 0)
        assert rec.is_rnn  # no other object nearer than q remains
        assert rig.events[-1] == ResultChange(50, 1, gained=True)
        assert rig.stats.circ_nn_searches_triggered >= 1
        rig.store.validate()

    def test_certificate_deleted(self):
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        rig.object(3, 120.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
        old, _ = rig.grid.delete_object(2)
        rig.store.handle_update(2, old, None)
        rec = rig.store.record(50, 0)
        assert rec.nn == 3  # the remaining disprover is found
        assert rec.radius == 20.0
        rig.store.validate()


class TestContainmentStep:
    def test_object_enters_rnn_circle(self):
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, None)
        rig.events.clear()
        new = Point(130.0, 100.0)
        rig.object(2, 130.0, 100.0)
        rig.store.handle_update(2, None, new)
        rec = rig.store.record(50, 0)
        assert not rec.is_rnn and rec.nn == 2 and rec.radius == 30.0
        assert rig.events == [ResultChange(50, 1, gained=False)]
        rig.store.validate()

    @pytest.mark.parametrize("batched", [False, True])
    def test_object_enters_lazily_grown_circle(self, batched):
        """A lazy radius grow patches the circle table: an object landing
        in the grown part only is found by the containment step."""
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
        old = rig.grid.positions[2]
        new = Point(160.0, 100.0)
        rig.grid.move_object(2, new)
        entering = rig.object(3, 100.0, 140.0)  # 40 from o1: inside 60, not 10
        moves = [(2, old, new), (3, None, entering)]
        if batched:
            rig.store.process_moves(moves)
        else:
            for move in moves:
                rig.store.handle_update(*move)
        assert rig.stats.circ_lazy_radius_updates == 1
        rec = rig.store.record(50, 0)
        assert rec.nn == 3 and rec.radius == 40.0
        rig.store.validate()

    def test_object_on_perimeter_does_not_flip(self):
        """Strictness: landing exactly at distance d(q, cand) is no disproof."""
        rig = _Rig()
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, None)
        rig.events.clear()
        new = Point(100.0, 200.0)  # exactly 100 away from o1
        rig.object(2, 100.0, 200.0)
        rig.store.handle_update(2, None, new)
        assert rig.store.record(50, 0).is_rnn
        assert rig.events == []


def _state(rig: _Rig):
    """Everything a batched circ phase may change, in comparable form."""
    store = rig.store
    return (
        list(rig.events),
        logical_subset(rig.stats.snapshot()),
        sorted(
            (k, r.cand, r.d_q_cand, r.nn, r.radius, r.in_fur)
            for k, r in store._records.items()
        ),
        {nn: sorted(keys) for nn, keys in store.nn_hash.items()},
        {oid: store.circles.get(oid) for oid in sorted(store.circles.slot)},
    )


def _batched_equals_scalar_loop(build) -> _Rig:
    """Run the scene ``build()`` returns — a rig whose grid already holds
    the batch's final positions, and the batch — through the batched
    ``process_moves`` and through the scalar loop
    ``CircStoreBase.process_moves`` on a second identical rig: events,
    logical counters, records, NN-Hash and circle table must agree."""
    fast, moves = build()
    ref, ref_moves = build()
    assert moves == ref_moves
    fast.store.process_moves(moves)
    CircStoreBase.process_moves(ref.store, ref_moves)
    assert _state(fast) == _state(ref)
    fast.store.validate()
    assert fast.store._tick is None
    return fast


class TestBatchedVisits:
    """The batched circ phase visits only movers with work; each scene
    is a way a mover can have work it had not at the start of the batch,
    checked event for event against the scalar loop."""

    def test_lazily_grown_circle_reaches_a_later_mover(self):
        def build():
            rig = _Rig()
            rig.query(50, 200.0, 100.0)
            p1 = rig.object(1, 100.0, 100.0)
            rig.object(2, 110.0, 100.0)
            rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
            rig.object(3, 500.0, 500.0)
            rig.object(4, 700.0, 700.0)
            moves = [
                # o4 moves before the grow: it must not see the grown circle.
                (4, Point(700.0, 700.0), Point(100.0, 130.0)),
                (2, Point(110.0, 100.0), Point(160.0, 100.0)),  # lazy grow 10 -> 60
                (3, Point(500.0, 500.0), Point(100.0, 140.0)),  # 40 from o1
            ]
            for oid, _, new in moves:
                rig.grid.move_object(oid, new)
            return rig, moves

        rig, moves = build()
        at_start = rig.store.circles.batch_containment_candidates(
            PointSweep([new for _, _, new in moves])
        )
        assert 2 not in at_start  # o3 had no candidate at the start
        rig = _batched_equals_scalar_loop(build)
        rec = rig.store.record(50, 0)
        assert rec.nn == 3 and rec.radius == 40.0
        assert rig.stats.circ_lazy_radius_updates == 1

    def test_recomputed_certificate_moves_later_in_the_batch(self):
        # Partial insert keeps o1's circle out of the table, so no circle
        # and no sweep ever reaches o3: only joining NN-Hash when o2's
        # escape re-searches o1's certificate gets o3 visited.
        def build():
            rig = _Rig(threshold=0.8)
            rig.query(50, 200.0, 100.0)
            p1 = rig.object(1, 100.0, 100.0)
            rig.object(2, 150.0, 100.0)
            rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 50.0)
            rig.object(3, 400.0, 400.0)
            moves = [
                (2, Point(150.0, 100.0), Point(600.0, 600.0)),  # escapes
                (3, Point(400.0, 400.0), Point(100.0, 130.0)),
            ]
            for oid, _, new in moves:
                rig.grid.move_object(oid, new)
            return rig, moves

        rig = _batched_equals_scalar_loop(build)
        assert len(rig.store.circles) == 0
        rec = rig.store.record(50, 0)
        assert rec.nn == 3 and rec.radius == 30.0
        assert rig.stats.circ_nn_searches_triggered == 1
        assert rig.stats.circ_lazy_radius_updates == 1  # o3's own visit

    def test_repeated_oids_in_one_batch(self):
        # o5 moves twice (its first move makes it a certificate, its
        # second lazily updates that), and certificate o6 is deleted and
        # re-inserted (the re-search finds it again at its new place).
        def build():
            rig = _Rig()
            rig.query(50, 200.0, 100.0)
            p1 = rig.object(1, 100.0, 100.0)
            rig.store.set_circ(50, 0, 1, p1, 100.0, None)
            rig.query(51, 100.0, 300.0)
            p7 = rig.object(7, 100.0, 250.0)
            rig.object(6, 100.0, 240.0)
            rig.store.set_circ(51, 3, 7, p7, 50.0, 6, 10.0)
            rig.object(5, 300.0, 300.0)
            moves = [
                (5, Point(300.0, 300.0), Point(100.0, 150.0)),
                (6, Point(100.0, 240.0), None),
                (5, Point(100.0, 150.0), Point(100.0, 120.0)),
                (6, None, Point(100.0, 235.0)),
            ]
            rig.grid.move_object(5, Point(100.0, 120.0))
            rig.grid.move_object(6, Point(100.0, 235.0))
            rig.events.clear()
            return rig, moves

        rig = _batched_equals_scalar_loop(build)
        assert rig.events == [ResultChange(50, 1, gained=False)]
        assert rig.store.record(50, 0).nn == 5 and rig.store.record(50, 0).radius == 20.0
        assert rig.store.record(51, 3).nn == 6 and rig.store.record(51, 3).radius == 15.0
        assert rig.stats.containment_queries == 3

    def test_escape_in_step_one_reaches_the_same_movers_step_two(self):
        # o1's circle still has its old centre when the batch starts; o2's
        # lazy update re-centres it on o1's grid position, around o2's own
        # new position — which step 2 of that same move must then find.
        def build():
            rig = _Rig()
            rig.query(50, 400.0, 100.0)
            rig.query(51, 100.0, 400.0)
            p1 = rig.object(1, 100.0, 100.0)
            rig.object(2, 110.0, 100.0)
            rig.object(3, 100.0, 180.0)
            rig.store.set_circ(50, 0, 1, p1, 300.0, 2, 10.0)
            rig.store.set_circ(51, 1, 1, p1, 300.0, 3, 80.0)
            rig.grid.move_object(1, Point(100.0, 200.0))
            moves = [(2, Point(110.0, 100.0), Point(150.0, 200.0))]
            rig.grid.move_object(2, moves[0][2])
            return rig, moves

        rig, moves = build()
        assert rig.store.circles.batch_containment_candidates(PointSweep([moves[0][2]])) == {}
        rig = _batched_equals_scalar_loop(build)
        assert rig.store.circles.get(1) == (Point(100.0, 200.0), 50.0)
        rec = rig.store.record(51, 1)
        assert rec.nn == 2 and rec.radius == 50.0

    def test_store_without_records_counts_containment_queries(self):
        def build():
            rig = _Rig()
            moves = [
                (1, None, rig.object(1, 10.0, 10.0)),
                (2, None, rig.object(2, 20.0, 20.0)),
                (3, Point(30.0, 30.0), None),
                (4, Point(40.0, 40.0), rig.object(4, 45.0, 45.0)),
            ]
            return rig, moves

        rig = _batched_equals_scalar_loop(build)
        assert rig.stats.containment_queries == 3
        assert rig.stats.vector_containment_batches == 0


class TestPartialInsert:
    def test_small_circle_stays_out_of_tree(self):
        rig = _Rig(threshold=0.8)
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        # radius 10 < 0.8 * 100: hash only
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
        assert 1 not in rig.store.circles
        assert not rig.store.record(50, 0).in_fur
        rig.store.validate()

    def test_large_circle_enters_tree(self):
        rig = _Rig(threshold=0.8)
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 185.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 85.0)
        assert 1 in rig.store.circles
        rig.store.validate()

    def test_threshold_crossing_migrates(self):
        rig = _Rig(threshold=0.8)
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.object(2, 110.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, 2, 10.0)
        assert 1 not in rig.store.circles
        # certificate drifts outward: radius grows past the threshold
        old = rig.grid.positions[2]
        new = Point(190.0, 100.0)
        rig.grid.move_object(2, new)
        rig.store.handle_update(2, old, new)
        assert rig.store.record(50, 0).radius == 90.0
        assert 1 in rig.store.circles
        # and back down
        old = rig.grid.positions[2]
        new = Point(105.0, 100.0)
        rig.grid.move_object(2, new)
        rig.store.handle_update(2, old, new)
        assert rig.store.record(50, 0).radius == 5.0
        assert 1 not in rig.store.circles
        rig.store.validate()

    def test_rnn_circles_always_in_tree(self):
        """radius == d(q, cand) always beats any threshold < 1."""
        rig = _Rig(threshold=0.95)
        rig.query(50, 200.0, 100.0)
        p1 = rig.object(1, 100.0, 100.0)
        rig.store.set_circ(50, 0, 1, p1, 100.0, None)
        assert 1 in rig.store.circles
        rig.store.validate()


class TestMonitorBuildsNoFurTree:
    """DESIGN §2 "Substitutions": the monitor keeps its circles in the
    circle table.  With ``FURTree`` made unconstructible, both FUR-store
    variants still run a churning stream — through ``process()`` and
    through the single-object API — and match the oracle after every
    batch."""

    @pytest.mark.parametrize("variant", ["lu-only", "lu+pi"])
    def test_streams_match_the_oracle_without_a_fur_tree(self, variant, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the monitor built a FURTree")

        monkeypatch.setattr(FURTree, "__init__", refuse)
        for subject in (single, unbatched):
            check(variant, golden(29), subject)
