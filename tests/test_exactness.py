"""The exactness contract, stated once: one differential harness.

After every tick, every execution mode of the monitor (a *subject*) must
agree with the *reference*, one vectorized :class:`CRNNMonitor` fed the
same stream through ``process()``:

* the drained events are equal, in emission order;
* ``results()`` is equal, the reference's equals
  :class:`~repro.core.oracle.BruteForceMonitor` (on every stream small
  enough for its O(Q·N²) tick), and its drained events, replayed from
  empty, reproduce its results;
* ``monitoring_region()`` of every query is equal (in-process subjects);

and after the last tick the logical counters and the guard's violation
counts are equal and ``validate()`` is clean.  The reference's run is
recorded once per (variant, stream) and pinned where
:data:`PINNED_STREAM_DIGESTS` / :data:`PINNED_COUNTERS` name it.

**Subjects** (:data:`SUBJECTS`) are the modes the library ships: the
vectorized monitor again, the scalar reference, observability on, the
single-object API (the batch of one), sharded K ∈ {2, 4} on either
executor, the wire path through ``ServerThread``, and the results-only
companions (RkNN at k=1, TPL-FUR, the unbatched single-object feed).
**Schedules** act on a subject before one tick: a checkpoint restored
under another facade, an exact checkpoint, a SIGKILLed shard worker.
**Streams** are the seeded generators below; :func:`lattice_batches` is
the degenerate-geometry one.

Every parity test of the suite is one :func:`check` call, so a new
execution mode proves exactness by adding one subject here.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import hypothesis.strategies as st
import pytest

from repro.core.baseline import TPLFURBaseline
from repro.core.circ_store import CircStoreBase
from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.core.oracle import BruteForceMonitor
from repro.core.stats import logical_subset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.monitors import RknnMonitor
from repro.obs.config import ObsConfig
from repro.robustness.checkpoint import from_json, restore_exact, snapshot_exact, to_json
from repro.robustness.faults import FaultInjector, FaultSpec
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.shard import ShardedCRNNMonitor

from .conftest import TEST_BOUNDS, VARIANTS, random_point

# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
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
#:
#: ``result_changes`` counts the events the monitor emits (one
#: per drained ``ResultChange``; :func:`reference` checks that on every
#: tick), no longer every circ-record RNN transition.  The transitions
#: ``update_query`` suppresses and the transient second memberships the
#: result reference counts absorb used to be counted too (golden-29:
#: 35 against 33 events under lu+pi).  On this stream the two already
#: agreed, so no value moves.
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
#: 32-cell grid, ~160 searches a tick.  "lattice-<seed>" are the
#: degenerate-geometry streams of :func:`lattice`, recorded when that
#: generator was added, on an unchanged monitor: they pin which of two
#: exactly tied objects becomes a sector's candidate.  "query-burst" is
#: the :data:`_SHAPES` stream of that name, recorded at 6c51b25, before
#: the query phase was batched and a moving query patched in place: it
#: pins the per-update query loop that replaced it (the same events in
#: the same order, the same certificates and pies).  A change here is a
#: behaviour change of the pie or query phase; re-record only with that
#: explained.
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
    ("uniform", "lattice-1"): "ac6e0c294a50a793e5b3cddefc423299c35ad01f0f3c9e7ce6fbdfff8b7fb492",
    ("uniform", "lattice-2"): "3693df612744013a460752171f0ab2d0031964cd7a46b60a324b8729717c01a8",
    ("uniform", "lattice-3"): "f7c943ce0a64c5eda00a7b9b8ef2bb6c946ed1674397fe5fc60e28da565299f0",
    ("lu-only", "lattice-1"): "ef09dba7895cb5fb50ec3e795c646750ef6cef4e66d32c9cc1579cdb66997cb3",
    ("lu-only", "lattice-2"): "7c3fd014298536fdd7d4842762b038f9d51c8702d7917f1d9162db17b6823375",
    ("lu-only", "lattice-3"): "7a11f0dd11e5bedd8755619d7dfc4aaffab929389c7855b41f72ea002c86c92a",
    ("lu+pi", "lattice-1"): "628ce5d0b4057ea55cd2665cf7b4738a6a0e5c282601a4c293ed7dde1e2cbb11",
    ("lu+pi", "lattice-2"): "cf112c56b7589989a96058d3328c0a91393dbb4d155d3cdfdb490db484217ed2",
    ("lu+pi", "lattice-3"): "46a19dc36522f4a0912c53c782ee8fafd4fafe1d8c2fe5e8ecc8ed84dff08278",
    ("uniform", "query-burst"): "740dd346bab15c1fab458923ed5a5620108d009323603f3d95668c6d1b934460",
    ("lu-only", "query-burst"): "6538a58b310c4511040a71374c7d83c9d2c4f2932367b07dde18b4c92a3ab3ee",
    ("lu+pi", "query-burst"): "f1caa5976c71c801ff9fafd0aa5a7f86d014cc68ac0b6e74bc42eceab590445a",
}


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """A seeded update stream and the monitor settings it runs under.

    ``name`` keys the recorded reference run (``None``: not recorded, as
    for hypothesis-drawn streams); ``oracle`` says whether the brute-force
    oracle is affordable after every tick.
    """

    name: Optional[str]
    batches: list
    grid_cells: int = 12
    bounds: Rect = TEST_BOUNDS
    guard_policy: str = "strict"
    oracle: bool = True

    def config(self, variant: str) -> MonitorConfig:
        """The monitor configuration of ``variant`` on this stream."""
        return MonitorConfig(
            variant=variant, grid_cells=self.grid_cells, bounds=self.bounds,
            guard_policy=self.guard_policy,
        )


#: The integer lattice of the generators: indices 0..39, 25 units apart,
#: exact in binary floating point.
LATTICE = 25.0
_SIDE = 40


def lattice_point(i: int, j: int) -> Point:
    """Lattice index ``(i, j)`` (clamped into the space) as a point."""
    return Point(LATTICE * min(max(i, 0), _SIDE - 1), LATTICE * min(max(j, 0), _SIDE - 1))


def _lattice_point(rng: random.Random, offset: float = 0.0) -> Point:
    """A random lattice point, shifted by ``offset`` in both axes: the churn
    streams put queries half a step over, never on an object."""
    p = lattice_point(rng.randint(0, _SIDE - 1), rng.randint(0, _SIDE - 1))
    return Point(p.x + offset, p.y + offset)


def churn_batches(rng: random.Random, timestamps: int) -> list[list]:
    """A churning stream: inserts, moves, deletes, query add/move/remove."""
    live_objects: set[int] = set()
    live_queries: set[int] = set()
    next_oid, next_qid = 0, 10_000
    batches = []
    for _ in range(timestamps):
        batch: list = []
        for _ in range(rng.randint(1, 8)):
            action = rng.random()
            if action < 0.35 or not live_objects:
                batch.append(ObjectUpdate(next_oid, _lattice_point(rng)))
                live_objects.add(next_oid)
                next_oid += 1
            elif action < 0.85:
                batch.append(
                    ObjectUpdate(rng.choice(sorted(live_objects)), _lattice_point(rng))
                )
            else:
                oid = rng.choice(sorted(live_objects))
                live_objects.discard(oid)
                batch.append(ObjectUpdate(oid, None))
        churn = rng.random()
        if churn < 0.25 or not live_queries:
            batch.append(QueryUpdate(next_qid, _lattice_point(rng, LATTICE / 2)))
            live_queries.add(next_qid)
            next_qid += 1
        elif churn < 0.5:
            batch.append(
                QueryUpdate(rng.choice(sorted(live_queries)), _lattice_point(rng, LATTICE / 2))
            )
        elif churn < 0.6 and len(live_queries) > 1:
            qid = rng.choice(sorted(live_queries))
            live_queries.discard(qid)
            batch.append(QueryUpdate(qid, None))
        batches.append(batch)
    return batches


def large_tick_batches(rng: random.Random, objects: int, queries: int, ticks: int, moves: int):
    """A load batch, then ``ticks`` batches of ``moves`` location updates
    (oids repeat): large enough for every array path's size threshold."""
    return [load_batch(rng, objects, queries)] + [
        [ObjectUpdate(rng.randrange(objects), random_point(rng)) for _ in range(moves)]
        for _ in range(ticks)
    ]


#: Query ids of :func:`serve_stream` live in their own range.
QUERY_BASE = 1_000_000


def serve_stream(seed: int = 7, n: int = 250, queries: int = 12, ticks: int = 200,
                 moves_per_tick: int = 25) -> tuple[list, list[list]]:
    """``(initial_batch, tick_batches)``: ``n`` objects and ``queries``
    queries, then ticks of mostly short random-walk moves with a
    sprinkling of deletes, fresh inserts and query moves — every update
    kind the wire protocol carries, valid under the strict guard."""
    rng = random.Random(seed)
    pos = {oid: random_point(rng) for oid in range(n)}
    qids = [QUERY_BASE + q for q in range(queries)]
    initial = [ObjectUpdate(oid, p) for oid, p in pos.items()]
    initial += [QueryUpdate(qid, random_point(rng)) for qid in qids]
    step = 1000.0 * 0.02  # of the test space's side
    tick_batches: list[list] = []
    for _ in range(ticks):
        batch: list = []
        for _ in range(moves_per_tick):
            roll = rng.random()
            if roll < 0.02 and len(pos) > 10:
                oid = rng.choice(sorted(pos))
                del pos[oid]
                batch.append(ObjectUpdate(oid, None))
                continue
            if roll < 0.04:
                oid, p = max(pos) + 1, random_point(rng)
            elif roll < 0.07:
                batch.append(QueryUpdate(rng.choice(qids), random_point(rng)))
                continue
            else:
                oid = rng.choice(sorted(pos))
                p = Point(*(min(max(c + rng.uniform(-step, step), 0.0), 1000.0) for c in pos[oid]))
            pos[oid] = p
            batch.append(ObjectUpdate(oid, p))
        tick_batches.append(batch)
    return initial, tick_batches


# -- the degenerate-geometry generator ---------------------------------
#: The stripe-boundary columns of K = 2 and K = 4 on an 8- or 12-cell grid.
_STRIPE_COLUMNS = (10, 20, 30)


#: Hypothesis draws on the same lattice: objects on it, queries half a
#: step right (on an object's row, so on its horizontal boundary rays,
#: but never on an object).
object_points = st.builds(lattice_point, st.integers(0, _SIDE - 1), st.integers(0, _SIDE - 1))
query_points = object_points.map(lambda p: Point(p.x + LATTICE / 2, p.y))
#: Free points of the test space: any float, one ulp from any edge.
free_points = st.builds(Point, *[st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)] * 2)


def _image(rng: random.Random, centre: tuple, offset: tuple) -> tuple:
    """``centre`` plus one of the eight lattice symmetries of ``offset``:
    a point exactly as far from ``centre`` as ``centre + offset``."""
    di, dj = offset
    if rng.random() < 0.5:
        di, dj = dj, di
    return centre[0] + rng.choice((-1, 1)) * di, centre[1] + rng.choice((-1, 1)) * dj


def lattice_batches(rng: random.Random, ticks: int = 40) -> list[list]:
    """Churn on the integer lattice, aimed at the monitor's knife edges.

    Objects and queries share the lattice, so it produces coincident
    objects, exact distance ties between objects and between an object
    and a query (an object moved to a symmetry image of another about a
    query; a candidate's nearest object moved onto the image of the query
    about the candidate, a certificate tie), mirror pairs of movers tied
    for one sector in one tick, objects on a query's row (its horizontal
    sector-boundary rays), the stripe-boundary columns x = 250 / 500 / 750
    and queries on the border, whose outward sectors are empty.  Nothing
    is ever placed on a point a query holds (the six-sector lemma's
    precondition), at the tick's start or end.  A third of the ticks
    carry a single update.
    """
    objects: dict[int, tuple] = {}
    queries: dict[int, tuple] = {}
    next_oid, next_qid = 0, 10_000
    batches = []

    def nearest(p: tuple, exclude: int = -1) -> int:
        return min(
            (o for o in objects if o != exclude),
            key=lambda o: ((objects[o][0] - p[0]) ** 2 + (objects[o][1] - p[1]) ** 2, o),
        )

    def clamp(p: tuple) -> tuple:
        return min(max(p[0], 0), _SIDE - 1), min(max(p[1], 0), _SIDE - 1)

    for _ in range(ticks):
        query_spots = set(queries.values())
        object_spots = set(objects.values())
        batch: list = []

        def move(oid: int, p: tuple) -> None:
            p = clamp(p)
            if p in query_spots:
                return
            objects[oid] = p
            object_spots.add(p)
            batch.append(ObjectUpdate(oid, lattice_point(*p)))

        def knife_point() -> tuple:
            r = rng.random()
            if r < 0.3 and queries and objects:
                q = queries[rng.choice(sorted(queries))]
                o = objects[rng.choice(sorted(objects))]
                return _image(rng, q, (o[0] - q[0], o[1] - q[1]))
            if r < 0.45 and queries:
                return rng.randrange(_SIDE), queries[rng.choice(sorted(queries))][1]
            if r < 0.6:
                return rng.choice(_STRIPE_COLUMNS), rng.randrange(_SIDE)
            if r < 0.75 and objects:
                return objects[rng.choice(sorted(objects))]
            return rng.randrange(_SIDE), rng.randrange(_SIDE)

        for _ in range(1 if rng.random() < 0.33 else rng.randint(2, 7)):
            r = rng.random()
            if r < 0.25 or len(objects) < 3:
                move(next_oid, knife_point())
                next_oid += 1
            elif r < 0.35:
                oid = rng.choice(sorted(objects))
                del objects[oid]
                batch.append(ObjectUpdate(oid, None))
            elif r < 0.55 and queries:
                # Certificate tie: the candidate's nearest object moves to
                # exactly the query's distance from the candidate.
                q = queries[rng.choice(sorted(queries))]
                cand = nearest(q)
                c = objects[cand]
                move(nearest(c, exclude=cand), _image(rng, c, (q[0] - c[0], q[1] - c[1])))
            elif r < 0.65 and queries:
                # Two movers tied for one sector of one query.
                q = queries[rng.choice(sorted(queries))]
                di, dj = rng.randint(1, 4), rng.randint(1, 8)
                a, b = rng.sample(sorted(objects), 2)
                move(a, (q[0] + di, q[1] + dj))
                move(b, (q[0] - di, q[1] + dj))
            else:
                move(rng.choice(sorted(objects)), knife_point())
        r = rng.random()
        if r < 0.3 or not queries:
            p = (rng.choice((0, _SIDE - 1, rng.randrange(_SIDE))), rng.randrange(_SIDE))
            if rng.random() < 0.5:
                p = p[::-1]
            if p not in object_spots and p not in query_spots:
                queries[next_qid] = p
                batch.append(QueryUpdate(next_qid, lattice_point(*p)))
                next_qid += 1
        elif r < 0.5:
            qid = rng.choice(sorted(queries))
            p = (rng.randrange(_SIDE), rng.randrange(_SIDE))
            if p not in object_spots and p not in query_spots:
                queries[qid] = p
                batch.append(QueryUpdate(qid, lattice_point(*p)))
        elif r < 0.6 and len(queries) > 1:
            qid = rng.choice(sorted(queries))
            del queries[qid]
            batch.append(QueryUpdate(qid, None))
        batches.append(batch)
    return [b for b in batches if b]


# -- the stream shapes of the randomised correctness suite -------------
def load_batch(rng: random.Random, n_objects: int, n_queries: int, point=random_point):
    """Objects ``0 .. n_objects-1``, then queries ``10_000 ..``."""
    load = [ObjectUpdate(oid, point(rng)) for oid in range(n_objects)]
    return load + [QueryUpdate(10_000 + i, point(rng)) for i in range(n_queries)]


def _clamped(v: float) -> float:
    return min(999.0, max(0.0, v))


def _clustered(rng: random.Random) -> Point:
    cx, cy = rng.choice(((200.0, 200.0), (800.0, 300.0), (500.0, 750.0)))
    return Point(_clamped(rng.gauss(cx, 60)), _clamped(rng.gauss(cy, 60)))


def _churn(rng: random.Random, oids: list, size: int) -> list:
    """One tick of ``size`` moves, inserts, deletes and (in batches)
    query moves over the live ``oids``."""
    live, batch = list(oids), []
    for _ in range(size):
        r = rng.random()
        if r < 0.4 + 0.15 * (size > 1):
            batch.append(ObjectUpdate(rng.choice(live), random_point(rng)))
        elif r < 0.7 or len(live) <= 5:
            live.append(max(live) + 1)
            batch.append(ObjectUpdate(live[-1], random_point(rng)))
        elif r < 0.82 or size == 1:
            batch.append(ObjectUpdate(live.pop(rng.randrange(len(live))), None))
        else:
            batch.append(QueryUpdate(10_000 + rng.randrange(10), random_point(rng)))
    return batch


def _query_burst(rng: random.Random, oids: list, queries: list) -> list:
    """One tick of a query-update burst over the live ``queries``.

    A quarter of the ticks carry one query add, move or delete (the
    single-object API's path); the rest carry two to five query patterns,
    with object moves before and after them on every other tick.  The
    patterns revisit an id within the tick: moved twice, moved then
    deleted, deleted then re-added (and moved again, a location update
    of the id the tick just re-registered), added then moved, or one
    plain move.  New ids count up from ``20_000``.
    """
    live = list(queries)
    fresh = max([19_999] + live) + 1
    if rng.random() < 0.25:
        r = rng.random()
        if r < 0.3 or len(live) < 3:
            return [QueryUpdate(fresh, random_point(rng))]
        qid = rng.choice(live)
        return [QueryUpdate(qid, None if r < 0.5 else random_point(rng))]
    moves = [ObjectUpdate(rng.choice(oids), random_point(rng))
             for _ in range(rng.randint(2, 8) if rng.random() < 0.5 else 0)]
    cut = rng.randrange(len(moves) + 1)
    batch = moves[:cut]
    for _ in range(rng.randint(2, 5)):
        r = rng.random()
        if r < 0.2 and len(live) > 3:
            qid = live.pop(rng.randrange(len(live)))
            batch += [QueryUpdate(qid, random_point(rng)), QueryUpdate(qid, None)]
        elif r < 0.4 and live:
            qid = rng.choice(live)
            batch += [QueryUpdate(qid, random_point(rng)), QueryUpdate(qid, random_point(rng))]
        elif r < 0.6 and live:
            qid = rng.choice(live)
            batch += [QueryUpdate(qid, None), QueryUpdate(qid, random_point(rng))]
            if rng.random() < 0.5:
                batch.append(QueryUpdate(qid, random_point(rng)))
        elif r < 0.8:
            batch += [QueryUpdate(fresh, random_point(rng)), QueryUpdate(fresh, random_point(rng))]
            live.append(fresh)
            fresh += 1
        elif live:
            batch.append(QueryUpdate(rng.choice(live), random_point(rng)))
    return batch + moves[cut:]


#: name -> (seed, grid cells, objects, queries, point, ticks,
#: tick(rng, oids, pos, queries)).  ``oids`` is the live object id list,
#: ``pos`` the live positions and ``queries`` the live query ids; a tick
#: returns its batch.  Most shapes are one update per tick.
_SHAPES = {
    "jitter": (7, 20, 60, 10, random_point, 250, lambda rng, oids, pos, queries: [
        ObjectUpdate(oid, Point(_clamped(pos[oid].x + rng.gauss(0, 25)),
                                _clamped(pos[oid].y + rng.gauss(0, 25))))
        for oid in [rng.randrange(60)]]),
    "clusters": (55, 16, 70, 8, _clustered, 200, lambda rng, oids, pos, queries: [
        ObjectUpdate(rng.randrange(70), _clustered(rng))]),
    "churn": (77, 10, 30, 8, random_point, 200,
              lambda rng, oids, pos, queries: _churn(rng, oids, 1)),
    "query-churn": (91, 12, 40, 6, random_point, 120, lambda rng, oids, pos, queries: [
        QueryUpdate(10_000 + rng.randrange(6), random_point(rng)) if rng.random() < 0.5
        else ObjectUpdate(rng.randrange(40), random_point(rng))]),
    "mixed": (2024, 14, 60, 10, random_point, 60,
              lambda rng, oids, pos, queries: _churn(rng, oids, rng.randrange(1, 16))),
    "query-burst": (42, 12, 60, 8, random_point, 80, lambda rng, oids, pos, queries:
                    _query_burst(rng, oids, queries)),
    "repeated": (5, 8, 20, 5, random_point, 40, lambda rng, oids, pos, queries: [
        ObjectUpdate(oid, random_point(rng)) for oid in [rng.randrange(20)] * 3]),
    "reinsert": (6, 8, 15, 5, random_point, 30, lambda rng, oids, pos, queries: [
        ObjectUpdate(oid, p) for oid in [rng.randrange(15)] for p in (None, random_point(rng))]),
}


def shape_batches(name: str) -> list[list]:
    """A load batch, then the ticks of shape ``name``: ``teleports-<cells>``,
    ``empty`` (down to no objects and back), ``double-membership`` or a
    :data:`_SHAPES` entry.  Deletes pick live ids; ids stay valid."""
    if name == "empty":
        rng = random.Random(78)
        return ([load_batch(rng, 5, 4)] + [[ObjectUpdate(oid, None)] for oid in range(5)]
                + [[ObjectUpdate(oid, random_point(rng))] for oid in range(100, 110)])
    if name == "double-membership":
        # During one batch an object can be the RNN candidate of two
        # sectors at once (a re-search installs it in its new sector
        # before the stale record of its old sector is cleared): the
        # result bookkeeping must reference-count.
        p0 = Point(0.0, 0.0)
        return [[ObjectUpdate(0, p0)], [QueryUpdate(10_000, Point(490.0, 772.0))],
                [ObjectUpdate(1, p0)], [ObjectUpdate(0, Point(854.0, 0.0))],
                [ObjectUpdate(1, None)], [ObjectUpdate(2, p0)],
                [ObjectUpdate(0, p0), ObjectUpdate(2, Point(760.0, 510.0))]]
    if name.startswith("teleports-"):
        cells = int(name.removeprefix("teleports-"))
        seed, n, q, point, ticks = 100 + cells, 50, 8, random_point, 150

        def tick(rng, oids, pos, queries):
            return [ObjectUpdate(rng.randrange(50), random_point(rng))]
    else:
        seed, cells, n, q, point, ticks, tick = _SHAPES[name]
    rng = random.Random(seed)
    batches = [load_batch(rng, n, q, point)]
    pos = {u.oid: u.pos for u in batches[0] if isinstance(u, ObjectUpdate)}
    queries = {u.qid for u in batches[0] if isinstance(u, QueryUpdate)}
    for _ in range(ticks):
        batch = tick(rng, sorted(pos), pos, sorted(queries))
        for u in batch:
            if isinstance(u, ObjectUpdate):
                if u.pos is None:
                    del pos[u.oid]
                else:
                    pos[u.oid] = u.pos
            else:
                (queries.discard if u.pos is None else queries.add)(u.qid)
        batches.append(batch)
    return batches


@functools.cache
def shape(name: str) -> Stream:
    """A stream shape (see :func:`shape_batches`) on its grid."""
    if name.startswith("teleports-"):
        cells = int(name.removeprefix("teleports-"))
    else:
        cells = {"empty": 6, "double-membership": 6}.get(name) or _SHAPES[name][1]
    return Stream(name, shape_batches(name), grid_cells=cells)


@functools.cache
def api_calls(seed: int, objects: int, queries: int, steps: int) -> tuple[Stream, frozenset]:
    """One single-object call per tick under the drop guard, and the ticks
    that go through ``add_*`` (see :func:`adding_at`): the load, then
    moves of objects (60 %) and queries (15 %), query removals (5 %),
    inserts of ids that may be live (10 %, an id conflict downgraded to a
    move) and deletes of ids that may be dead (10 %, counted no-ops)."""
    rng = random.Random(seed)
    qids, ids = range(100, 100 + queries), objects + objects // 3
    batches = [[ObjectUpdate(oid, random_point(rng))] for oid in range(objects)]
    batches += [[QueryUpdate(qid, random_point(rng))] for qid in qids]
    adds = set(range(len(batches)))
    for _ in range(steps):
        r = rng.random()
        if r < 0.6:
            batches.append([ObjectUpdate(rng.randrange(objects), random_point(rng))])
        elif r < 0.8:
            batches.append([QueryUpdate(rng.choice(qids), random_point(rng) if r < 0.75 else None)])
        elif r < 0.9:
            adds.add(len(batches))
            batches.append([ObjectUpdate(rng.randrange(objects, ids), random_point(rng))])
        else:
            batches.append([ObjectUpdate(rng.randrange(ids), None)])
    return Stream(f"api-{seed}", batches, guard_policy="drop"), frozenset(adds)


@functools.cache
def golden(seed: int, timestamps: int = 12) -> Stream:
    """The churn stream of ``seed``; the golden seeds are 11, 29, 404."""
    name = f"golden-{seed}" if timestamps == 12 else f"churn-{seed}x{timestamps}"
    return Stream(name, churn_batches(random.Random(seed), timestamps))


@functools.cache
def mild(seed: int) -> Stream:
    """Golden stream ``seed`` under the resilience harness's mild fault mix
    (drops, duplicates, reorders, stale replays, corruptions), guarded."""
    faulted = FaultInjector(FaultSpec.mild(seed=seed)).stream(golden(seed).batches)
    return Stream(f"mild-{seed}", list(faulted), guard_policy="drop")


@functools.cache
def singletons() -> Stream:
    """Churn stream 41 cut into one-update ticks (the bulk path's scalar fallback)."""
    return Stream("singletons", [[u] for b in churn_batches(random.Random(41), 10) for u in b])


@functools.cache
def pinned(name: str) -> Stream:
    """``large`` and ``dense`` of :data:`PINNED_STREAM_DIGESTS`."""
    if name == "large":
        return Stream(name, large_tick_batches(random.Random(5), 600, 12, 3, 800), oracle=False)
    return Stream(
        name, large_tick_batches(random.Random(7), 1500, 120, 3, 1000),
        grid_cells=32, oracle=False,
    )


@functools.cache
def lattice(seed: int) -> Stream:
    """The degenerate-geometry stream of ``seed`` on an 8-cell grid (cell
    edges every five lattice steps, stripe edges on lattice columns)."""
    return Stream(f"lattice-{seed}", lattice_batches(random.Random(seed)), grid_cells=8)


@functools.cache
def recorded(name: str) -> Stream:
    """Mobility-model workloads loaded as one batch: ``trace`` (a
    free-space trace) and ``network`` (an oldenburg-like road network
    under mild faults, as ``run_resilience`` drives it)."""
    from repro.mobility.network import oldenburg_like
    from repro.mobility.trace import Trace
    from repro.mobility.workload import Workload, WorkloadSpec

    if name == "trace":
        spec = WorkloadSpec(
            num_objects=120, num_queries=8, object_mobility=0.25, query_mobility=0.15,
            timestamps=8, seed=99, bounds=TEST_BOUNDS,
        )
        trace = Trace.record(Workload(spec))
        batches, settings = trace.batches, {}
    else:
        spec = WorkloadSpec(num_objects=300, num_queries=25, timestamps=8, seed=23)
        trace = Trace.record(Workload(spec, oldenburg_like(spec.bounds, random.Random(23))))
        batches = list(FaultInjector(FaultSpec.mild(seed=23)).stream(trace.batches))
        settings = dict(grid_cells=24, bounds=spec.bounds, guard_policy="drop", oracle=False)
    load = [ObjectUpdate(oid, p) for oid, p in sorted(trace.objects.items())]
    load += [QueryUpdate(qid, p) for qid, p in sorted(trace.queries.items())]
    return Stream(name, [load] + batches, **settings)


@functools.cache
def served() -> Stream:
    """:func:`serve_stream`'s default stream on a 32-cell grid, the load
    batch first."""
    initial, tick_batches = serve_stream()
    return Stream("serve", [initial] + tick_batches, grid_cells=32, oracle=False)


# ----------------------------------------------------------------------
# The reference run
# ----------------------------------------------------------------------
def _assert_theorem_1(before: tuple, results: dict, effective: list, positions: dict,
                      context: str) -> None:
    """The paper's Theorem 1: a query's result changes only when an
    update's old or new position lies in its monitoring region (queries
    that moved themselves are exempt)."""
    _, was, regions = before
    endpoints = [p for u in effective if isinstance(u, ObjectUpdate)
                 for p in (positions.get(u.oid), u.pos) if p is not None]
    moved = {u.qid for u in effective if isinstance(u, QueryUpdate)}
    for qid, region in regions.items():
        if qid not in moved and results.get(qid, was[qid]) != was[qid]:
            assert any(region.covers(p) for p in endpoints), (
                f"{context}: q{qid} changed from updates outside its monitoring region"
            )



def replay(events, members: dict) -> dict:
    """Apply drained events to ``members`` (qid -> set of oids), checking
    that they are net membership changes: no duplicate gain, no loss
    without a gain.  Returns ``members``."""
    for ev in events:
        got = members.setdefault(ev.qid, set())
        assert (ev.oid in got) != ev.gained, f"unpaired {ev}"
        (got.add if ev.gained else got.discard)(ev.oid)
    return members


@dataclass
class Reference:
    """What the reference monitor produced: per tick ``(events, results,
    regions)``, then its logical counters and guard violation counts."""

    ticks: list
    counters: dict
    violations: dict


_REFERENCES: dict[tuple, Reference] = {}


def reference(variant: str, stream: Stream) -> Reference:
    """Run (or recall) the reference on ``stream``, checking it against
    the oracle, its own drained events, the pins and ``validate()``."""
    key = (variant, stream.name)
    if stream.name is not None and key in _REFERENCES:
        return _REFERENCES[key]
    monitor = CRNNMonitor(stream.config(variant))
    oracle = BruteForceMonitor() if stream.oracle else None
    replayed: dict[int, set[int]] = {}
    digest = hashlib.sha256() if (variant, stream.name) in PINNED_STREAM_DIGESTS else None
    ticks: list = []
    was_exact = False
    for t, batch in enumerate(stream.batches):
        positions = dict(monitor.grid.positions)
        changes = monitor.stats.result_changes
        monitor.process(batch)
        effective = monitor.guard.last_effective
        events = monitor.drain_events()
        assert monitor.drain_events() == [], "a second drain must be empty"
        assert monitor.stats.result_changes - changes == len(events), (
            f"t={t}: result_changes must count the drained events"
        )
        results = monitor.results()
        regions = {qid: monitor.monitoring_region(qid) for qid in sorted(monitor.qt.ids())}
        if digest is not None:
            digest.update(repr(events).encode())
            for region in regions.values():
                digest.update(repr(region).encode())
        assert {q: s for q, s in replay(events, replayed).items() if s} == {
            q: set(s) for q, s in results.items() if s
        }, f"t={t}: replayed events diverge from results()"
        # The geometric checks hold where no object sits on a query point
        # (the six-sector lemma's precondition); free floats can break it.
        exact = not {q.pos for q in monitor.qt}.intersection(monitor.grid.positions.values())
        if oracle is not None:
            oracle.process(effective)
            assert not exact or results == oracle.results(), f"{variant} {stream.name} t={t}"
        if was_exact and exact:
            _assert_theorem_1(ticks[-1], results, effective, positions, f"t={t}")
        ticks.append((events, results, regions))
        was_exact = exact
    monitor.validate()
    counters = logical_subset(monitor.stats.snapshot())
    if digest is not None:
        assert digest.hexdigest() == PINNED_STREAM_DIGESTS[variant, stream.name]
    if stream.name == f"golden-{PINNED_SEED}":
        assert counters == PINNED_COUNTERS[variant]
    ref = Reference(ticks, counters, monitor.guard.violation_counts())
    if stream.name is not None:
        _REFERENCES[key] = ref
    return ref


# ----------------------------------------------------------------------
# Subjects
# ----------------------------------------------------------------------
def _triples(events) -> list[tuple]:
    return [tuple(e) if isinstance(e, (tuple, list)) else (e.qid, e.oid, e.gained)
            for e in events]


def _ident(update) -> tuple[str, int]:
    if isinstance(update, ObjectUpdate):
        return "object", update.oid
    return "query", update.qid


def adding_at(ticks) -> Callable:
    """An ``api`` rule: ``add_*`` at the given ticks (live id or not)."""
    return lambda t, ident, live: t in ticks


class Direct:
    """An in-process facade fed one ``process()`` call per tick — or, with
    ``api`` set, the single-object methods for a one-update tick (the
    batch of one).  ``api(t, id, live)`` says whether tick ``t`` makes its
    insert or move through ``add_*`` rather than ``update_*`` (which
    inserts an unknown id too); ``True`` picks ``add_*`` for an unknown
    even id.  ``remove_*`` must say whether the id was live and
    ``add_query`` return the query's result; an ``add_*`` of a live id is
    an id conflict the reference's move does not count, so it leaves the
    compared guard counts."""

    regions = counters = True

    def __init__(self, monitor, api=None):
        self.monitor = monitor
        self.api = (lambda t, ident, live: not live and ident % 2 == 0) if api is True else api
        self.live: set[tuple[str, int]] = set()
        self.t = self.conflicts = 0

    def resumed(self, monitor) -> "Direct":
        """This feed, continued on ``monitor``."""
        rebuilt = Direct(monitor, self.api)
        rebuilt.live, rebuilt.t, rebuilt.conflicts = self.live, self.t, self.conflicts
        return rebuilt

    def call(self, update) -> None:
        """``update`` as one single-object call."""
        kind, ident = _ident(update)
        live = (kind, ident) in self.live
        if update.pos is None:
            assert getattr(self.monitor, f"remove_{kind}")(ident) == live
        elif self.api(self.t, ident, live):
            self.conflicts += live
            got = getattr(self.monitor, f"add_{kind}")(ident, update.pos)
            assert kind == "object" or got == self.monitor.rnn(ident)
        else:
            getattr(self.monitor, f"update_{kind}")(ident, update.pos)
        (self.live.discard if update.pos is None else self.live.add)((kind, ident))

    def tick(self, batch: list) -> list:
        if self.api and len(batch) == 1:
            self.call(batch[0])
        else:
            self.monitor.process(batch)
            for update in batch:
                (self.live.discard if update.pos is None else self.live.add)(_ident(update))
        self.t += 1
        return self.monitor.drain_events()

    def results(self, want: dict) -> dict:
        return self.monitor.results()

    def region(self, qid: int):
        return self.monitor.monitoring_region(qid)

    def logical(self) -> dict:
        if isinstance(self.monitor, ShardedCRNNMonitor):
            return logical_subset(self.monitor.aggregated_stats().snapshot())
        return logical_subset(self.monitor.stats.snapshot())

    def violations(self) -> Optional[dict]:
        counts = self.monitor.guard.violation_counts()
        counts["guard_id_conflicts"] -= self.conflicts
        return counts

    def validate(self) -> None:
        self.monitor.validate()

    def kill(self) -> None:
        _kill_worker(self.monitor)

    def close(self) -> None:
        if isinstance(self.monitor, ShardedCRNNMonitor):
            self.monitor.close()


def _kill_worker(sharded: ShardedCRNNMonitor) -> None:
    """SIGKILL shard 0's worker process and wait for it to die."""
    proc = sharded.executor.supervisor.channels[0].proc
    proc.kill()
    proc.join(timeout=10.0)
    assert not proc.is_alive()


class Wire:
    """The stream through a live TCP server: one producer client
    subscribed to every query and, with ``watch`` set, a second client
    subscribed to that query alone."""

    regions = False
    counters = True

    def __init__(self, config: MonitorConfig, backend: str, shards: int, watch=None):
        self.thread = ServerThread(ServeConfig(monitor=config, backend=backend, shards=shards))
        address = self.thread.start()
        self.client = ServeClient(*address)
        self.client.subscribe(None)
        self.watcher = self.watch = None
        if watch is not None:
            self.watch, self.watcher = watch, ServeClient(*address)
            self.watcher.subscribe(watch)
        self.fed: dict[int, list] = {}

    def tick(self, batch: list) -> list:
        self.client.send_updates(batch)
        ack = self.client.tick()
        assert ack.shed == 0, "a parity run must not shed"
        frames = self.client.take_events()
        for frame in frames:
            self.fed.setdefault(frame.tick, []).extend(frame.changes)
        changes = [c for frame in frames for c in frame.changes]
        assert len(changes) == ack.events, "fanout lost or duplicated events"
        return changes

    def results(self, want: dict) -> dict:
        return {qid: frozenset(self.client.results(qid)) for qid in want}

    def logical(self) -> dict:
        return logical_subset({k: int(v) for k, v in self.client.stats().counters.items()})

    def violations(self) -> Optional[dict]:
        return None

    def validate(self) -> None:
        self.thread.server.monitor.validate()
        if self.watcher is not None:
            self.watcher.stats()  # a round trip: every earlier frame is in
            got: dict[int, list] = {}
            for frame in self.watcher.take_events():
                got.setdefault(frame.tick, []).extend(frame.changes)
            want = {t: [c for c in cs if c[0] == self.watch] for t, cs in self.fed.items()}
            assert {t: c for t, c in got.items() if c} == {t: c for t, c in want.items() if c}

    def kill(self) -> None:
        _kill_worker(self.thread.server.monitor)

    def close(self) -> None:
        for client in (self.client, self.watcher):
            if client is not None:
                client.close()
        self.thread.stop()


class ResultsOnly:
    """A companion monitor compared on results alone: its events and
    counters are its own."""

    regions = counters = False

    def __init__(self, monitor, read: Callable):
        self.monitor, self.read = monitor, read

    def tick(self, batch: list) -> None:
        self.last = self.monitor.process(batch)

    def results(self, want: dict) -> dict:
        return self.read(self, want)

    def validate(self) -> None:
        getattr(self.monitor, "validate", lambda: None)()

    def close(self) -> None:
        pass


def scalar(config: MonitorConfig) -> Direct:
    """The scalar reference: the scalar kernel twins and the per-move
    circ loop (:meth:`CircStoreBase.process_moves`)."""
    monitor = CRNNMonitor(config)
    monitor.grid.vector_enabled = False
    monitor.circ.process_moves = functools.partial(CircStoreBase.process_moves, monitor.circ)
    return Direct(monitor)


def single(config: MonitorConfig) -> Direct:
    """A second vectorized monitor."""
    return Direct(CRNNMonitor(config))


def observed(config: MonitorConfig) -> Direct:
    """The monitor with every observability feature on."""
    return Direct(CRNNMonitor(replace(config, observability=ObsConfig())))


def api(config: MonitorConfig) -> Direct:
    """The monitor through its single-object methods."""
    return Direct(CRNNMonitor(config), api=True)


def sharded(shards: int, executor: str = "serial", api=None,
            observability: Optional[ObsConfig] = None, **kwargs) -> Callable:
    """The sharded facade of ``shards`` stripes; ``kwargs`` go to its
    constructor (supervision, chaos)."""

    def build(config: MonitorConfig) -> Direct:
        if observability is not None:
            config = replace(config, observability=observability)
        return Direct(
            ShardedCRNNMonitor(config, shards=shards, executor=executor, **kwargs), api=api
        )

    return build


def wire(backend: str = "serial", shards: int = 1, watch: Optional[int] = None) -> Callable:
    """The wire path of ``backend``."""
    return lambda config: Wire(config, backend, shards, watch)


def rknn(config: MonitorConfig) -> ResultsOnly:
    """The RkNN monitor at k = 1."""
    return ResultsOnly(
        RknnMonitor(config.bounds, grid_cells=config.grid_cells),
        lambda self, want: {qid: self.monitor.rknn(qid) for qid in want},
    )


def tpl_fur(config: MonitorConfig) -> ResultsOnly:
    """The TPL-FUR recompute-every-tick baseline."""
    return ResultsOnly(TPLFURBaseline(), lambda self, want: self.last)


class Unbatched(Direct):
    """The monitor fed every update through ``update_*`` / ``remove_*``: a
    batch is not a sequence of singletons, so only results compare."""

    regions = counters = False

    def tick(self, batch: list) -> None:
        for update in batch:
            self.call(update)


def unbatched(config: MonitorConfig) -> Unbatched:
    return Unbatched(CRNNMonitor(config), lambda t, ident, live: False)


#: Every execution mode, by name (the harness grid's subject axis).
SUBJECTS: dict[str, Callable] = {
    "single": single,
    "scalar": scalar,
    "observed": observed,
    "api": api,
    "K2": sharded(2),
    "K4": sharded(4),
    "K2-api": sharded(2, api=True),
    "K2-process": sharded(2, "process", observability=ObsConfig(sample_rate=0.25)),
    "rknn": rknn,
    "tpl-fur": tpl_fur,
    "unbatched": unbatched,
}


# ----------------------------------------------------------------------
# Schedules: what happens to a subject before one tick
# ----------------------------------------------------------------------
def restored(shards: int = 0, executor: str = "serial") -> Callable:
    """Checkpoint the subject (through JSON) and continue on a canonical
    rebuild: a plain monitor, or ``shards`` stripes on ``executor``.
    Fresh certificates are not the uninterrupted run's, so regions and
    counters leave the comparison; events and results stay.  ``base``
    keeps the rebuild's logical counters at the restore."""

    def then(driver: Direct) -> Direct:
        snap = from_json(to_json(driver.monitor.checkpoint()))
        driver.close()
        if shards:
            monitor = ShardedCRNNMonitor.from_checkpoint(snap, shards=shards, executor=executor)
        else:
            monitor = CRNNMonitor.from_checkpoint(snap)
        rebuilt = driver.resumed(monitor)
        rebuilt.regions = rebuilt.counters = False
        rebuilt.base = rebuilt.logical()
        return rebuilt

    return then


def restored_exactly(driver: Direct) -> Direct:
    """Continue on ``restore_exact(snapshot_exact(...))``: certificates
    and counters included, so every check stays."""
    return driver.resumed(restore_exact(snapshot_exact(driver.monitor), verify=True))


def killed(driver):
    """SIGKILL shard 0's worker process; supervision must hide it."""
    driver.kill()
    return driver


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
def check(variant: str, stream: Stream, subject: Optional[Callable] = None, *,
          at: Optional[int] = None, then: Optional[Callable] = None,
          probe: Optional[Callable] = None) -> None:
    """Hold ``subject`` to the reference on ``stream``, tick by tick.

    Without a subject only the reference's own checks run.  ``then``
    (a schedule) replaces the subject before tick ``at``; ``probe(t,
    driver)`` runs after every tick's checks, for white-box assertions.
    """
    ref = reference(variant, stream)
    if subject is None:
        return
    driver = subject(stream.config(variant))
    try:
        for t, batch in enumerate(stream.batches):
            if t == at:
                driver = then(driver)
            context = f"{variant} {stream.name} t={t}"
            events, results, regions = ref.ticks[t]
            got = driver.tick(batch)
            if got is not None:
                assert _triples(got) == _triples(events), f"{context}: events"
            assert driver.results(results) == results, f"{context}: results"
            if driver.regions:
                for qid, region in regions.items():
                    assert driver.region(qid) == region, f"{context}: region of q{qid}"
            if probe is not None:
                probe(t, driver)
        if driver.counters:
            assert driver.logical() == ref.counters, f"{variant} {stream.name}: counters"
            if driver.violations() is not None:
                assert driver.violations() == ref.violations, "guard violation counts"
        driver.validate()
    finally:
        driver.close()


# ----------------------------------------------------------------------
# The grid: subjects × streams beyond the per-layer suites' cases
# ----------------------------------------------------------------------
#: In-process subjects per variant; the sharded facade needs a FUR variant.
_IN_PROCESS = [(variant, name) for variant in VARIANTS
               for name in ("single", "scalar", "observed", "api", "K2", "K4", "K2-api")
               if variant != "uniform" or not name.startswith("K")]


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("variant, name", _IN_PROCESS)
def test_degenerate_lattice(variant, name, seed):
    check(variant, lattice(seed), SUBJECTS[name])


@pytest.mark.parametrize("variant, name", _IN_PROCESS)
def test_query_burst(variant, name):
    check(variant, shape("query-burst"), SUBJECTS[name])


@pytest.mark.parametrize("name", ("rknn", "tpl-fur", "unbatched"))
@pytest.mark.parametrize("stream", [golden(11), golden(29), lattice(1)], ids=lambda s: s.name)
def test_results_only_companions(stream, name):
    check("lu+pi", stream, SUBJECTS[name])


@pytest.mark.parametrize("seed", (11, 29))
@pytest.mark.parametrize("variant", VARIANTS)
def test_observability_changes_nothing(variant, seed):
    check(variant, golden(seed), observed)
    check(variant, mild(seed), observed)
    if variant != "uniform":  # worker processes tracing and shipping metric deltas
        check(variant, golden(seed), SUBJECTS["K2-process"])


@pytest.mark.parametrize("at", (1, 6))
@pytest.mark.parametrize("target", ("single", "K4", "K2-process"))
@pytest.mark.parametrize("source", ("single", "K2"))
def test_checkpoint_restores_mid_stream(source, target, at):
    shards, executor = {"single": (0, "serial"), "K4": (4, "serial"),
                        "K2-process": (2, "process")}[target]
    check("lu+pi", lattice(2), SUBJECTS[source], at=at, then=restored(shards, executor))


@pytest.mark.parametrize("at", (1, 6))
def test_exact_checkpoint_restores_mid_stream(at):
    check("lu+pi", lattice(2), api, at=at, then=restored_exactly)


@pytest.mark.parametrize("at", (2, 7))
def test_worker_killed_mid_stream(at):
    check("lu+pi", lattice(3), SUBJECTS["K2-process"], at=at, then=killed)
