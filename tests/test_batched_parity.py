"""Scalar-vs-vector kernel parity and batch semantics, through the harness.

The reference side of these checks is the scalar subject of
:mod:`tests.test_exactness`: the same :class:`CRNNMonitor` with
``grid.vector_enabled`` cleared and its circ store's ``process_moves``
bound to :meth:`CircStoreBase.process_moves`, which must be
event-for-event identical to the vectorized monitor on clean and
mild-fault streams.  Also here: the pinned event streams, the
single-object API as the batch of one, lazy cell materialization, and
``bulk_move_objects`` vs sequential ``move_object``.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor, apply_grid_updates
from repro.core.stats import logical_subset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.grid.index import GridIndex
from repro.robustness.guard import IngestionError
from repro.shard.monitor import ShardedCRNNMonitor

from .conftest import TEST_BOUNDS, VARIANTS, make_monitor, random_point
from .test_exactness import (
    PINNED_STREAM_DIGESTS,
    Direct,
    Stream,
    adding_at,
    check,
    free_points,
    golden,
    mild,
    pinned,
    recorded,
    scalar,
    sharded,
    singletons,
)

#: Golden seeds: fixed, so every run exercises the exact same streams.
GOLDEN_SEEDS = (11, 29, 404)


class TestGoldenParity:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_clean_stream_event_for_event(self, variant, seed):
        check(variant, golden(seed), scalar)

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_mild_fault_stream_event_for_event(self, variant, seed):
        check(variant, mild(seed), scalar)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_resilience_workload_mild_faults(self, variant):
        check(variant, recorded("network"), scalar)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_large_batch_parity(self, variant):
        # Big batches: the bulk grid-move fast path with real chunking.
        check(variant, pinned("large"), scalar)


class TestPinnedEventStreams:
    @pytest.mark.parametrize(
        "variant,stream", sorted(k for k in PINNED_STREAM_DIGESTS if "lattice" not in k[1])
    )
    def test_event_stream_digest_unchanged(self, variant, stream):
        check(variant, golden(int(stream[7:])) if stream.startswith("golden") else pinned(stream))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scalar_reference_reaches_the_same_digest(self, variant):
        check(variant, pinned("dense"), scalar)


class TestDrainEventsBatched:
    def test_drain_clears_and_replays_to_results(self):
        # The harness replays every reference's drained events from empty
        # and drains twice; this stream is the one that pinned it first.
        check("lu+pi", golden(3, timestamps=8))

    def test_singleton_batches_keep_scalar_parity(self):
        # One batch is not a sequence of singleton batches, but at every
        # granularity the twins agree; singletons take the bulk path's
        # small-batch scalar fallback.
        check("lu+pi", singletons(), scalar)


# ----------------------------------------------------------------------
# The single-object API is the batch of one
# ----------------------------------------------------------------------
# Objects mostly on a 50-unit lattice (exact ties, coincident objects),
# queries on the same rows half a step over, so lattice objects land on a
# query's horizontal sector-boundary rays but never on the query itself;
# a minority of free points keeps the streams off the lattice too.  The
# boolean picks ``add_*`` over ``update_*`` for an unknown id.
_lattice = st.integers(0, 20).map(lambda i: 50.0 * i)
_on_lattice = st.builds(Point, _lattice, _lattice)
_object_points = st.one_of(_on_lattice, _on_lattice, free_points)
_query_points = st.one_of(
    st.builds(Point, st.integers(0, 19).map(lambda i: 50.0 * i + 25.0), _lattice), free_points
)
_single_ops = st.lists(
    st.one_of(
        st.tuples(st.just(ObjectUpdate), st.integers(0, 9), _object_points, st.booleans()),
        st.tuples(st.just(ObjectUpdate), st.integers(0, 9), st.none(), st.booleans()),
        st.tuples(st.just(QueryUpdate), st.integers(100, 103), _query_points, st.booleans()),
        st.tuples(st.just(QueryUpdate), st.integers(100, 103), st.none(), st.booleans()),
    ),
    max_size=40,
)
#: Every stream starts from the same small world, itself loaded through
#: the two APIs under comparison.
_SINGLE_PREFIX = [
    (ObjectUpdate, oid, Point(50.0 * (3 + 2 * (oid % 4)), 50.0 * (4 + 3 * (oid // 4))), False)
    for oid in range(8)
] + [(QueryUpdate, 100, Point(325.0, 350.0), False), (QueryUpdate, 101, Point(475.0, 200.0), True)]


def _one_update_ticks(ops) -> tuple[Stream, frozenset]:
    """``ops`` as one-update ticks, minus deletes of unknown ids (the
    strict guard rejects them), and the ticks inserting through ``add_*``."""
    live, batches, adds = set(), [], set()
    for kind, ident, pos, via_add in _SINGLE_PREFIX + ops:
        if pos is None and (kind, ident) not in live:
            continue
        if via_add and pos is not None and (kind, ident) not in live:
            adds.add(len(batches))
        (live.discard if pos is None else live.add)((kind, ident))
        batches.append([kind(ident, pos)])
    return Stream(None, batches, grid_cells=8), frozenset(adds)


class TestSingleUpdateIsBatchOfOne:
    """The contract of DESIGN §6: for objects and queries, a single-object
    call is the one-element ``process()`` batch — events, results, regions
    and ``LOGICAL_COUNTERS`` — on both facades."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=40, deadline=None)
    @given(ops=_single_ops)
    def test_single_monitor(self, variant, ops):
        stream, adds = _one_update_ticks(ops)
        check(variant, stream, lambda config: Direct(CRNNMonitor(config), adding_at(adds)))

    @settings(max_examples=25, deadline=None)
    @given(ops=_single_ops)
    def test_sharded_facade(self, ops):
        stream, adds = _one_update_ticks(ops)
        check("lu+pi", stream, sharded(2, api=adding_at(adds)))

    @pytest.mark.parametrize("sharded", [False, True])
    def test_update_query_registers_an_unknown_id(self, sharded):
        config = MonitorConfig(variant="lu+pi", grid_cells=8, bounds=TEST_BOUNDS)
        monitor = ShardedCRNNMonitor(config, shards=2) if sharded else CRNNMonitor(config)
        stats = monitor.aggregated_stats if sharded else lambda: monitor.stats
        monitor.add_object(1, Point(300.0, 300.0))
        monitor.update_query(5, Point(325.0, 300.0))
        assert monitor.rnn(5) == frozenset({1})
        assert logical_subset(stats().snapshot())["query_recomputations"] == 0
        with pytest.raises(IngestionError):  # rejected before any counter moves
            monitor.update_query(6, Point(-5.0, 300.0))
        assert logical_subset(stats().snapshot())["query_recomputations"] == 0
        assert monitor.query_count() == 1


class TestLazyCells:
    def test_fresh_grid_materializes_no_cells(self):
        grid = GridIndex(Rect(0.0, 0.0, 1000.0, 1000.0), cells_per_axis=64)
        assert grid.materialized_cell_count == 0
        assert grid.stats.cells_materialized == 0

    def test_fresh_monitor_materializes_no_cells(self):
        mon = make_monitor("lu+pi", grid_cells=64)
        assert mon.grid.materialized_cell_count == 0

    def test_materialization_is_on_demand(self):
        grid = GridIndex(Rect(0.0, 0.0, 1000.0, 1000.0), cells_per_axis=64)
        grid.insert_object(1, Point(10.0, 10.0))
        assert grid.materialized_cell_count == 1
        grid.insert_object(2, Point(10.5, 10.5))  # same cell
        assert grid.materialized_cell_count == 1
        grid.insert_object(3, Point(990.0, 990.0))
        assert grid.materialized_cell_count == 2
        # peek never materializes
        assert grid.peek_cell(30, 30) is None
        assert grid.materialized_cell_count == 2


class TestBulkMoveObjects:
    def _populated(self, n=200, seed=13):
        rng = random.Random(seed)
        grid = GridIndex(TEST_BOUNDS, cells_per_axis=12)
        for oid in range(n):
            grid.insert_object(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
        return grid, rng

    def _assert_same_state(self, bulk_grid, seq_grid):
        assert bulk_grid.positions == seq_grid.positions
        # Cell membership agrees everywhere (this forces the deferred
        # cell-objects sync on the bulk grid).
        for cy in range(12):
            for cx in range(12):
                assert bulk_grid.objects_in_cell(cx, cy) == seq_grid.objects_in_cell(
                    cx, cy
                ), f"cell ({cx},{cy})"

    def test_matches_sequential_move_object(self):
        bulk_grid, rng = self._populated()
        seq_grid, _ = self._populated()
        pairs = []
        seen = set()
        for _ in range(120):
            oid = rng.randrange(200)
            if oid in seen:  # bulk contract: distinct oids per call
                continue
            seen.add(oid)
            pairs.append((oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000))))
        got = bulk_grid.bulk_move_objects(pairs)
        want = []
        for oid, new_pos in pairs:
            old, _, _ = seq_grid.move_object(oid, new_pos)
            if old != new_pos:
                want.append((oid, old, new_pos))
        assert got == want
        self._assert_same_state(bulk_grid, seq_grid)

    def test_apply_grid_updates_matches_per_update_loop(self):
        # The run-flush logic against the loop it replaced: inserts,
        # deletes, repeated oids, no-op moves and query updates cut the
        # bulk runs anywhere, leaving runs on both sides of the array
        # path's size threshold.
        bulk_grid, rng = self._populated()
        seq_grid, _ = self._populated()
        batch, live = [], list(range(200))
        for i in range(400):
            r, pos = rng.random(), random_point(rng)
            if r < 0.03:
                live.append(200 + i)
                batch.append(ObjectUpdate(200 + i, pos))
            elif r < 0.06:
                batch.append(ObjectUpdate(live.pop(rng.randrange(len(live))), None))
            elif r < 0.08:
                batch.append(QueryUpdate(10_000, pos))
            else:
                oid = rng.choice(live)
                stay = seq_grid.positions.get(oid, pos)
                batch.append(ObjectUpdate(oid, stay if r < 0.12 else pos))
        got, want, queries = [], [], []
        apply_grid_updates(bulk_grid, batch, got, queries)
        for update in batch:
            if isinstance(update, QueryUpdate):
                continue
            old = seq_grid.positions.get(update.oid)
            if update.pos is None:
                seq_grid.delete_object(update.oid)
            elif old is None:
                seq_grid.insert_object(update.oid, update.pos)
            else:
                seq_grid.move_object(update.oid, update.pos)
            if old != update.pos:
                want.append((update.oid, old, update.pos))
        assert got == want
        assert queries == [u for u in batch if isinstance(u, QueryUpdate)]
        assert bulk_grid.csr_fresh
        self._assert_same_state(bulk_grid, seq_grid)

    def test_small_batches_use_scalar_fallback(self):
        grid, rng = self._populated(n=20)
        pairs = [(3, Point(1.0, 1.0)), (7, Point(999.0, 999.0))]
        moves = grid.bulk_move_objects(pairs)
        assert [m[0] for m in moves] == [3, 7]
        assert grid.position(3) == Point(1.0, 1.0)
        assert not grid._cell_objects_stale  # fallback maintains sets eagerly

    def test_noop_moves_are_skipped(self):
        grid, _ = self._populated(n=30)
        pairs = [(oid, grid.position(oid)) for oid in range(30)]
        assert grid.bulk_move_objects(pairs) == []
        assert grid.positions == self._populated(n=30)[0].positions
