"""Seeded update streams, generated up front and held as compact columns.

The program under test only ever receives ``ObjectUpdate``/``QueryUpdate``
lists; the bench keeps each batch as four NumPy columns and materialises
one batch just before its tick (outside the timed region), so the
pre-generated stream costs ~24 bytes per update instead of ~200 and
``peak_rss_mb`` reflects the system under test, not the load generator.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAULT_BOUNDS
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.mobility import (
    QUERY_ID_BASE,
    NetworkGenerator,
    Workload,
    WorkloadSpec,
    oldenburg_like,
)

from bench.spec import WorkloadDef

OBJ, QRY = 0, 1


@dataclass(frozen=True)
class Batch:
    """One timestamp's updates as aligned columns (NaN coords = delete)."""

    kinds: np.ndarray  # uint8: OBJ / QRY
    ids: np.ndarray  # int64
    xs: np.ndarray  # float64
    ys: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.ids)

    def materialize(self) -> list:
        """The ``ObjectUpdate``/``QueryUpdate`` list the program receives."""
        out = []
        for kind, eid, x, y in zip(
            self.kinds.tolist(), self.ids.tolist(), self.xs.tolist(), self.ys.tolist()
        ):
            pos = None if x != x else Point(x, y)
            out.append(ObjectUpdate(eid, pos) if kind == OBJ else QueryUpdate(eid, pos))
        return out


def _to_batch(updates: list) -> Batch:
    n = len(updates)
    kinds = np.empty(n, np.uint8)
    ids = np.empty(n, np.int64)
    xs = np.full(n, np.nan)
    ys = np.full(n, np.nan)
    for i, u in enumerate(updates):
        if isinstance(u, ObjectUpdate):
            kinds[i], ids[i] = OBJ, u.oid
        else:
            kinds[i], ids[i] = QRY, u.qid
        if u.pos is not None:
            xs[i], ys[i] = u.pos
    return Batch(kinds, ids, xs, ys)


@dataclass
class Stream:
    """Initial snapshot + per-tick batches of one (workload, seed)."""

    init: Batch
    ticks: list[Batch]
    gen_seconds: float = 0.0
    digest: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        h = hashlib.sha256()
        for batch in [self.init, *self.ticks]:
            for col in (batch.kinds, batch.ids, batch.xs, batch.ys):
                h.update(col.tobytes())
            h.update(b"|")
        self.digest = h.hexdigest()


class Snapshot:
    """Object/query positions obtained by replaying stream columns.

    This is the oracle's input: it is derived from the generated stream
    alone, never read back from the program under test.
    """

    def __init__(self) -> None:
        self.objects: dict[int, tuple[float, float]] = {}
        self.queries: dict[int, tuple[float, float]] = {}

    def apply(self, batch: Batch) -> None:
        """Fold one batch into the snapshot (inserts, moves, deletes)."""
        for kind, eid, x, y in zip(
            batch.kinds.tolist(), batch.ids.tolist(), batch.xs.tolist(), batch.ys.tolist()
        ):
            table = self.objects if kind == OBJ else self.queries
            if x != x:
                table.pop(eid, None)
            else:
                table[eid] = (x, y)


#: The road map is one fixed city (the paper uses one Oldenburg map for
#: every experiment) and the few hundred query points follow one fixed set
#: of routes on it — the monitored sites; ``--seed`` draws the object
#: traffic (the 20 000 movers and which of them report each tick).  With a
#: map and a query set per seed, ``query-move`` — whose cost is 20
#: ``init_crnn`` calls per tick at wherever the 200 queries happen to be —
#: moved by 7-15 % between seeds on the same code: a different city, not
#: noise, and more than a bound on a same-code comparison should absorb.
#: ``churn`` follows suit: which queries are swapped each tick, and where
#: the new ones go, is fixed; the seed draws the objects.
MAP_SEED = 0
#: Seed of the fixed query set (routes, or churn's registrations).
QUERY_SEED = MAP_SEED + 7919


def _network_stream(wd: WorkloadDef, seed: int, ticks: int) -> tuple[Batch, list[Batch]]:
    w = Workload(
        WorkloadSpec(
            num_objects=wd.num_objects,
            num_queries=wd.num_queries,
            object_mobility=wd.object_mobility,
            query_mobility=wd.query_mobility,
            timestamps=ticks,
            seed=seed,
        ),
        network=oldenburg_like(DEFAULT_BOUNDS, random.Random(MAP_SEED)),
    )
    w.queries = NetworkGenerator(
        w.network, wd.num_queries, seed=QUERY_SEED, first_id=QUERY_ID_BASE
    )
    init = [ObjectUpdate(o, p) for o, p in sorted(w.initial_objects().items())]
    init += [QueryUpdate(q, p) for q, p in sorted(w.initial_queries().items())]
    return _to_batch(init), [_to_batch(b) for b in w.batches()]


def _churn_stream(wd: WorkloadDef, seed: int, ticks: int) -> tuple[Batch, list[Batch]]:
    """Uniform free-space population held at constant size, zero moves.

    Every tick deletes ``object_mobility`` of the objects, inserts as many
    fresh ids, deregisters ``query_mobility`` of the queries and registers
    as many new ones.  Uniform random floats keep objects off query points.
    """
    rng = random.Random(seed)
    query_rng = random.Random(QUERY_SEED)
    b = DEFAULT_BOUNDS

    def point(rng: random.Random = rng) -> Point:
        return Point(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax))

    live_o = list(range(wd.num_objects))
    live_q = [QUERY_ID_BASE + i for i in range(wd.num_queries)]
    next_o, next_q = wd.num_objects, QUERY_ID_BASE + wd.num_queries
    init = [ObjectUpdate(o, point()) for o in live_o]
    init += [QueryUpdate(q, point(query_rng)) for q in live_q]
    n_o = round(wd.object_mobility * wd.num_objects)
    n_q = round(wd.query_mobility * wd.num_queries)
    out = []
    for _ in range(ticks):
        gone_o = set(rng.sample(live_o, n_o))
        gone_q = set(query_rng.sample(live_q, n_q))
        new_o = list(range(next_o, next_o + n_o))
        new_q = list(range(next_q, next_q + n_q))
        next_o += n_o
        next_q += n_q
        batch: list = [ObjectUpdate(o, None) for o in sorted(gone_o)]
        batch += [ObjectUpdate(o, point()) for o in new_o]
        batch += [QueryUpdate(q, None) for q in sorted(gone_q)]
        batch += [QueryUpdate(q, point(query_rng)) for q in new_q]
        live_o = [o for o in live_o if o not in gone_o] + new_o
        live_q = [q for q in live_q if q not in gone_q] + new_q
        out.append(_to_batch(batch))
    return _to_batch(init), out


def generate(wd: WorkloadDef, seed: int, ticks: int) -> Stream:
    """The full update stream of ``wd`` for ``seed``: a pure function of both."""
    t0 = time.perf_counter()
    make = _churn_stream if wd.stream == "churn" else _network_stream
    init, batches = make(wd, seed, ticks)
    return Stream(init, batches, gen_seconds=time.perf_counter() - t0)
