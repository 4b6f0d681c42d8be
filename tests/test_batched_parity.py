"""Golden scalar-vs-vector kernel parity and batch-semantics tests.

The reference side of every pair is the same :class:`CRNNMonitor` with
``grid.vector_enabled`` cleared, which pins its NN searches, ``initCRNN``
and row-interval enumerations to the scalar twins, and with its circ
store's ``process_moves`` bound to :meth:`CircStoreBase.process_moves`
(the plain ``handle_update`` loop), which is the reference of the batched
``FurCircStore.process_moves``.  The two must be
**event-for-event identical**: same ``ResultChange`` sequence from
``drain_events()``, same ``results()``, same ``monitoring_region()`` — on
clean streams and on the mild-fault streams of the resilience harness.

Also covered here: ``drain_events()`` ordering semantics under batched
updates, batched-vs-unbatched ``process()`` equivalence, lazy cell
materialization, and ``bulk_move_objects`` vs sequential ``move_object``.
"""

from __future__ import annotations

import functools
import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.circ_store import CircStoreBase
from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor, apply_grid_updates
from repro.core.stats import logical_subset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.grid.index import GridIndex
from repro.robustness.faults import FaultInjector, FaultSpec
from repro.robustness.guard import IngestionError
from repro.shard.monitor import ShardedCRNNMonitor

from .conftest import TEST_BOUNDS, VARIANTS, large_tick_batches, make_monitor, random_point
from .test_robustness_fuzz import _random_batches

#: Golden seeds: fixed, so every run exercises the exact same streams.
GOLDEN_SEEDS = (11, 29, 404)

#: The algorithm's work on the clean seed-11 stream, per variant: the one
#: machine-independent pin of *how much* the monitor computes (the parity
#: suites only compare mode against mode).  Any change here means the
#: algorithm changed; re-record only with that change explained.
#:
#: PR 13 re-pin — ``nn_searches`` 80 -> 94 (lu-only) and 70 -> 84 (lu+pi):
#: ``initCRNN`` now evaluates the bounded NN of *every* candidate (one
#: ``nn_searches`` each, whether read from the kernel's gather or
#: searched), not only of candidates the traversal never disproved, so
#: that its certificates are order-independent and the twins
#: bit-identical; +14 is the already-disproved candidates of this
#: stream's registrations and recomputations.  ``uniform`` stays at 209
#: (it already ran that search for every candidate) and no other counter
#: moves on this stream.
PINNED_SEED = 11
PINNED_COUNTERS = {
    "uniform": {
        "nn_searches": 209, "constrained_nn_searches": 35,
        "pie_case1": 40, "pie_case2": 15, "pie_case3": 3,
        "result_changes": 62, "containment_queries": 0,
        "circ_lazy_radius_updates": 0, "circ_nn_searches_triggered": 115,
        "query_recomputations": 3,
    },
    "lu-only": {
        "nn_searches": 94, "constrained_nn_searches": 35,
        "pie_case1": 40, "pie_case2": 15, "pie_case3": 3,
        "result_changes": 72, "containment_queries": 49,
        "circ_lazy_radius_updates": 20, "circ_nn_searches_triggered": 32,
        "query_recomputations": 3,
    },
    "lu+pi": {
        "nn_searches": 84, "constrained_nn_searches": 35,
        "pie_case1": 40, "pie_case2": 15, "pie_case3": 3,
        "result_changes": 72, "containment_queries": 49,
        "circ_lazy_radius_updates": 22, "circ_nn_searches_triggered": 22,
        "query_recomputations": 3,
    },
}


#: sha256 of the drained events and every query's monitoring region,
#: tick by tick, **recorded at the parent of PR 18 (c6520bc) before its
#: first edit**.  The pass-structured ``_resolve_affected`` (classify
#: all, search all, install, certify all, replay the circ writes) has no
#: in-tree twin to be compared with — the scalar reference monitor runs
#: the same passes — so these pin it against the per-query, per-search
#: loop it replaced: same events in the same order, same certificates
#: (``CircRegion.nn`` and radius), same pies.  "golden-<seed>" are the
#: churn streams of ``test_clean_stream_event_for_event``; "large" is
#: ``large_tick_batches(Random(5), 600, 12, 3, 800)`` on the default
#: 12-cell grid; "dense" is ``(Random(7), 1500, 120, 3, 1000)`` on a
#: 32-cell grid, ~160 searches a tick.  A change here is a behaviour
#: change of the pie phase; re-record only with that explained.
PINNED_STREAM_DIGESTS = {
    ("uniform", "golden-11"): "bae10ca5e6754c071cde571b72639a31fe374d40d8d118ce7371ad68826f16ca",
    ("uniform", "golden-29"): "6c06956c59c13c7a66a670f65b2e3f4840733b082b5537f8533139f70a92886d",
    ("uniform", "golden-404"): "2ddb09da7beb3b6560ee343341d5f7f7d2f39dbfaedbe9815505c01f61ff4cbc",
    ("uniform", "large"): "ee7c400ea79711c2579b8d088fb3cb848b2253e6828d012458131d9d502ecb6d",
    ("uniform", "dense"): "b9c8d171d47c4b3d520245440d4bfd932b1169ac465d9fee78e249befdcc8999",
    ("lu-only", "golden-11"): "6634d1fb862ad6580ae73a61b4fc51c23ddfe5ae517c337cbc042930ebf18abf",
    ("lu-only", "golden-29"): "e34d5406617b3e61d268ade3e3f7614b8350d70eac5807b96de0c1ede5b20c89",
    ("lu-only", "golden-404"): "1837bdccfa31b68f0a26d30edb2ab53b6998b44d7344a42de7aeaf0e97bb417e",
    ("lu-only", "large"): "ce3dd77eb43fb44de05c1f32b4154c6fadb995c2cafe43e49e3e97dce25b5b48",
    ("lu-only", "dense"): "8e06d821ca77c3c32642c2e73e0d7775bb60997c16375852453d444c4bd435b1",
    ("lu+pi", "golden-11"): "95b570d34e92b74ec4783e8444d044d3ddd047cf55de7d99d9d8b98436e95746",
    ("lu+pi", "golden-29"): "3623761cfb5c7341664752ceb3d7d23f9750966489d0e29702e1ba86f5927a58",
    ("lu+pi", "golden-404"): "51fb559d24eedc7f99d0407b170fcfca1ffd45ba495dae01fdd8304db510ad87",
    ("lu+pi", "large"): "641c9ea7ac3dee50af44657dc7571b15062e9cc372a3109f99c45c8bb029dcdf",
    ("lu+pi", "dense"): "a8934b9256e2d633ec432b56366aec79d6539b042c41b04ec91e5f90c7875d0c",
}


def _pinned_stream(name: str) -> tuple[list, int]:
    """The batches of a pinned stream and the grid resolution it runs on."""
    if name == "large":
        return large_tick_batches(random.Random(5), 600, 12, 3, 800), 12
    if name == "dense":
        return large_tick_batches(random.Random(7), 1500, 120, 3, 1000), 32
    seed = int(name.removeprefix("golden-"))
    return _random_batches(random.Random(seed), timestamps=12), 12


def _stream_digest(monitor: CRNNMonitor, batches) -> str:
    h = hashlib.sha256()
    for batch in batches:
        monitor.process(batch)
        h.update(repr(monitor.drain_events()).encode())
        for qid in sorted(monitor.qt.ids()):
            h.update(repr(monitor.monitoring_region(qid)).encode())
    return h.hexdigest()


def _as_reference(monitor: CRNNMonitor) -> CRNNMonitor:
    """Pin ``monitor`` to the scalar kernels and the per-move circ loop."""
    monitor.grid.vector_enabled = False
    monitor.circ.process_moves = functools.partial(CircStoreBase.process_moves, monitor.circ)
    return monitor


def _pair(variant: str, **kwargs) -> tuple[CRNNMonitor, CRNNMonitor]:
    return _as_reference(make_monitor(variant, **kwargs)), make_monitor(variant, **kwargs)


def _assert_lockstep(scalar: CRNNMonitor, fast: CRNNMonitor, context: str) -> None:
    assert fast.drain_events() == scalar.drain_events(), context
    assert fast.results() == scalar.results(), context
    for qid in list(fast.qt.ids()):
        assert fast.monitoring_region(qid) == scalar.monitoring_region(qid), (
            f"{context}: region of q{qid}"
        )


class TestGoldenParity:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_clean_stream_event_for_event(self, variant, seed):
        batches = _random_batches(random.Random(seed), timestamps=12)
        scalar, fast = _pair(variant)
        for t, batch in enumerate(batches):
            scalar.process(batch)
            fast.process(batch)
            _assert_lockstep(scalar, fast, f"{variant} seed={seed} t={t}")
        scalar.validate()
        fast.validate()
        if seed == PINNED_SEED:
            for monitor in (scalar, fast):
                assert logical_subset(monitor.stats.snapshot()) == PINNED_COUNTERS[variant]

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_mild_fault_stream_event_for_event(self, variant, seed):
        # The resilience harness's mild fault mix (drops, duplicates,
        # reorders, stale replays, corruptions) through a guarded
        # monitor; the injector is seeded so both monitors see the
        # exact same faulted stream.
        batches = list(
            FaultInjector(FaultSpec.mild(seed=seed)).stream(
                _random_batches(random.Random(seed), timestamps=12)
            )
        )
        scalar, fast = _pair(variant, guard_policy="drop")
        for t, batch in enumerate(batches):
            scalar.process(batch)
            fast.process(batch)
            _assert_lockstep(scalar, fast, f"{variant} seed={seed} t={t}")
        assert fast.guard.violation_counts() == scalar.guard.violation_counts()
        scalar.validate()
        fast.validate()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_resilience_workload_mild_faults(self, variant):
        # The actual resilience-harness stream: an oldenburg-like road
        # network workload with the mild fault mix, exactly as
        # run_resilience drives it.
        from repro.mobility.network import oldenburg_like
        from repro.mobility.workload import Workload, WorkloadSpec

        spec = WorkloadSpec(num_objects=300, num_queries=25, timestamps=8, seed=23)
        network = oldenburg_like(spec.bounds, random.Random(spec.seed))
        workload = Workload(spec, network)
        config = MonitorConfig(
            variant=variant, grid_cells=24, bounds=spec.bounds, guard_policy="drop"
        )
        scalar, fast = _as_reference(CRNNMonitor(config)), CRNNMonitor(config)
        workload.load_into(scalar)
        workload.load_into(fast)
        _assert_lockstep(scalar, fast, f"{variant} after load")
        batches = FaultInjector(FaultSpec.mild(seed=spec.seed)).stream(
            workload.batches()
        )
        for t, batch in enumerate(batches):
            scalar.process(batch)
            fast.process(batch)
            _assert_lockstep(scalar, fast, f"{variant} resilience t={t}")
        scalar.validate()
        fast.validate()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_large_batch_parity(self, variant):
        # One big batch (the bulk grid-move fast path with real chunking)
        # rather than the small churn batches above.
        scalar, fast = _pair(variant)
        for t, batch in enumerate(large_tick_batches(random.Random(5), 600, 12, 1, 800)):
            scalar.process(batch)
            fast.process(batch)
            _assert_lockstep(scalar, fast, f"{variant} large batch t={t}")
        scalar.validate()
        fast.validate()


class TestPinnedEventStreams:
    @pytest.mark.parametrize("variant,stream", sorted(PINNED_STREAM_DIGESTS))
    def test_event_stream_digest_unchanged(self, variant, stream):
        batches, cells = _pinned_stream(stream)
        fast = make_monitor(variant, grid_cells=cells)
        assert _stream_digest(fast, batches) == PINNED_STREAM_DIGESTS[variant, stream]
        fast.validate()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scalar_reference_reaches_the_same_digest(self, variant):
        # The batch entry point's scalar-loop side, through the same passes.
        batches, cells = _pinned_stream("dense")
        scalar = _as_reference(make_monitor(variant, grid_cells=cells))
        assert _stream_digest(scalar, batches) == PINNED_STREAM_DIGESTS[variant, "dense"]


class TestDrainEventsBatched:
    def test_drain_clears_and_replays_to_results(self):
        # The drained deltas are net membership changes in emission
        # order: replaying them from scratch must reproduce results()
        # exactly, with no duplicate gains and no loss without a prior
        # gain — that is the ordering contract batched processing must
        # keep.
        mon = make_monitor("lu+pi")
        state: dict[int, set[int]] = {}
        for batch in _random_batches(random.Random(3), timestamps=8):
            mon.process(batch)
            events = mon.drain_events()
            # Draining twice without processing yields nothing.
            assert mon.drain_events() == []
            for ev in events:
                members = state.setdefault(ev.qid, set())
                if ev.gained:
                    assert ev.oid not in members, f"duplicate gain {ev}"
                    members.add(ev.oid)
                else:
                    assert ev.oid in members, f"loss without gain {ev}"
                    members.discard(ev.oid)
            got = {qid: frozenset(s) for qid, s in state.items() if s}
            want = {qid: s for qid, s in mon.results().items() if s}
            assert got == want

    def test_singleton_batches_keep_scalar_parity(self):
        # A batch is processed in phases (all grid moves, then pies,
        # then circs), so one batch is *not* equivalent to a sequence of
        # singleton batches — but at every granularity the vector and
        # scalar kernels must still agree event-for-event.
        # Singleton batches exercise the bulk path's small-batch scalar
        # fallback.
        batches = _random_batches(random.Random(41), timestamps=10)
        scalar, fast = _pair("lu+pi")
        for t, batch in enumerate(batches):
            for update in batch:
                scalar.process([update])
                fast.process([update])
                _assert_lockstep(scalar, fast, f"singleton t={t}")
        scalar.validate()
        fast.validate()


# ----------------------------------------------------------------------
# The single-object API is the batch of one
# ----------------------------------------------------------------------
# Objects sit on a 50-unit lattice (distance ties, coincident objects) and
# queries on the same rows half a step over, so lattice objects land on a
# query's horizontal sector-boundary rays but never on the query itself;
# a minority of free points keeps the streams off the lattice too.
_lattice = st.integers(0, 20).map(lambda i: 50.0 * i)
_free = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=64)
_object_points = st.one_of(
    st.tuples(_lattice, _lattice), st.tuples(_lattice, _lattice), st.tuples(_free, _free)
).map(lambda t: Point(*t))
_query_points = st.one_of(
    st.tuples(st.integers(0, 19).map(lambda i: 50.0 * i + 25.0), _lattice),
    st.tuples(_free, _free),
).map(lambda t: Point(*t))
_single_ops = st.lists(
    st.one_of(
        st.tuples(st.just("object"), st.integers(0, 9), _object_points, st.booleans()),
        st.tuples(st.just("object"), st.integers(0, 9), st.none(), st.booleans()),
        st.tuples(st.just("query"), st.integers(100, 103), _query_points, st.booleans()),
        st.tuples(st.just("query"), st.integers(100, 103), st.none(), st.booleans()),
    ),
    max_size=40,
)
#: Every stream starts from the same small world, itself loaded through
#: the two APIs under comparison.
_SINGLE_PREFIX = [
    ("object", oid, Point(50.0 * (3 + 2 * (oid % 4)), 50.0 * (4 + 3 * (oid // 4))), False)
    for oid in range(8)
] + [
    ("query", 100, Point(325.0, 350.0), False),
    ("query", 101, Point(475.0, 200.0), True),
]


def _logical(monitor) -> dict[str, int]:
    stats = (
        monitor.aggregated_stats()
        if isinstance(monitor, ShardedCRNNMonitor)
        else monitor.stats
    )
    return logical_subset(stats.snapshot())


def _assert_single_is_batch_of_one(single, batched, ops) -> None:
    """Drive ``single`` through the single-object methods and ``batched``
    through one-element ``process()`` batches; everything observable must
    agree after every step."""
    updates = {"object": ObjectUpdate, "query": QueryUpdate}
    known: dict[str, set[int]] = {"object": set(), "query": set()}
    for step, (kind, ident, pos, via_add) in enumerate(_SINGLE_PREFIX + ops):
        live = known[kind]
        if pos is None:
            if ident not in live:
                continue  # the strict guard rejects an unknown delete
            getattr(single, f"remove_{kind}")(ident)
            live.discard(ident)
        else:
            # update_* on an unknown id inserts / registers it.
            verb = "add" if via_add and ident not in live else "update"
            getattr(single, f"{verb}_{kind}")(ident, pos)
            live.add(ident)
        batched.process([updates[kind](ident, pos)])
        context = f"step {step}: {kind} {ident} -> {pos}"
        _assert_lockstep(single, batched, context)
        assert _logical(single) == _logical(batched), context
    single.validate()
    batched.validate()


class TestSingleUpdateIsBatchOfOne:
    """The contract of DESIGN §6: for objects and queries, a single-object
    call is the one-element ``process()`` batch — events, results, regions
    and ``LOGICAL_COUNTERS`` — on both facades."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=40, deadline=None)
    @given(ops=_single_ops)
    def test_single_monitor(self, variant, ops):
        _assert_single_is_batch_of_one(
            make_monitor(variant, grid_cells=8), make_monitor(variant, grid_cells=8), ops
        )

    @settings(max_examples=25, deadline=None)
    @given(ops=_single_ops)
    def test_sharded_facade(self, ops):
        config = MonitorConfig(variant="lu+pi", grid_cells=8, bounds=TEST_BOUNDS)
        _assert_single_is_batch_of_one(
            ShardedCRNNMonitor(config, shards=2), CRNNMonitor(config), ops
        )

    @pytest.mark.parametrize("sharded", [False, True])
    def test_update_query_registers_an_unknown_id(self, sharded):
        config = MonitorConfig(variant="lu+pi", grid_cells=8, bounds=TEST_BOUNDS)
        monitor = ShardedCRNNMonitor(config, shards=2) if sharded else CRNNMonitor(config)
        monitor.add_object(1, Point(300.0, 300.0))
        monitor.update_query(5, Point(325.0, 300.0))
        assert monitor.rnn(5) == frozenset({1})
        assert _logical(monitor)["query_recomputations"] == 0
        with pytest.raises(IngestionError):  # rejected before any counter moves
            monitor.update_query(6, Point(-5.0, 300.0))
        assert _logical(monitor)["query_recomputations"] == 0
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
