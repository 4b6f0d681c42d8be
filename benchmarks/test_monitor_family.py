"""Bench for the reverse k-NN monitor (beyond the paper's figures).

**RkNN k-scaling** — the continuous reverse k-NN monitor's cost as k
grows (candidate lists and verification circles both scale with k).
"""

import random
import time

from repro.core.config import DEFAULT_BOUNDS
from repro.core.events import ObjectUpdate
from repro.monitors import RknnMonitor
from repro.mobility.generator import NetworkGenerator
from repro.mobility.network import oldenburg_like

N_OBJECTS = 800
N_QUERIES = 60
TICKS = 8
MOBILITY = 0.2


def _workload():
    rng = random.Random(5)
    network = oldenburg_like(DEFAULT_BOUNDS, rng)
    objects = NetworkGenerator(network, N_OBJECTS, seed=5)
    queries = NetworkGenerator(network, N_QUERIES, seed=55, first_id=10_000)
    batches = [
        [ObjectUpdate(oid, pos) for oid, pos in objects.tick(MOBILITY).items()]
        for _ in range(TICKS)
    ]
    return objects, queries, batches


def _timed(target, batches) -> float:
    start = time.perf_counter()
    for batch in batches:
        target.process(batch)
    return (time.perf_counter() - start) / len(batches)


def test_rknn_k_scaling(benchmark):
    objects, queries, batches = _workload()
    qpos = list(queries.positions().items())[:20]

    timings = {}
    for k in (1, 2, 4, 8):
        mon = RknnMonitor(DEFAULT_BOUNDS, grid_cells=64)
        for oid, pos in objects.positions().items():
            mon.add_object(oid, pos)
        for qid, pos in qpos:
            mon.add_query(qid, pos, k=k)
        timings[k] = _timed(mon, batches)
    print(
        "\nRkNN monitor k-scaling (s/timestamp): "
        + ", ".join(f"k={k}: {t:.5f}" for k, t in timings.items())
    )

    mon = RknnMonitor(DEFAULT_BOUNDS, grid_cells=64)
    for oid, pos in objects.positions().items():
        mon.add_object(oid, pos)
    for qid, pos in qpos:
        mon.add_query(qid, pos, k=4)
    import itertools

    cycler = itertools.cycle(batches)
    benchmark(lambda: mon.process(next(cycler)))
