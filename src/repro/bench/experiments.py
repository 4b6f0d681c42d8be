"""Per-figure experiment definitions (Section 6 of the paper).

Every table and figure of the paper's evaluation has a function here
that reruns it and returns a :class:`~repro.bench.harness.SweepResult`.

Scaling: the paper ran Java on a 2.66 GHz Pentium 4 with 10K-100K
objects and 1K-10K queries.  Pure Python is roughly two orders of
magnitude slower per operation, so the default cardinalities here are
the paper's divided by 10 (the sweep *shapes* are preserved: same
6-point cardinality sweeps, same 5-point mobility sweeps, same 30
timestamps, same 128x128 grid).  Set the environment variable
``REPRO_SCALE`` to a float to scale cardinalities up or down, e.g.
``REPRO_SCALE=10`` reruns the paper's exact sizes.

Defaults (the paper's Table 1 bold values, scaled): 4 000 objects, 400
query points, 10% object mobility, 10% query-point mobility.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import replace

from repro.bench.harness import SweepResult, sweep
from repro.bench.simulation import (
    ALL_METHODS,
    METHOD_LU_ONLY,
    METHOD_LU_PI,
    METHOD_TPL_FUR,
    METHOD_UNIFORM,
    run_method,
)
from repro.core.config import MonitorConfig
from repro.geometry.point import Point
from repro.mobility.workload import WorkloadSpec
from repro.rtree.furtree import FURTree
from repro.rtree.node import LeafEntry
from repro.rtree.rtree import RTree

#: Paper grid resolution (Section 6.1).
GRID_CELLS = 128

#: Paper sweeps, scaled by 1/10 at REPRO_SCALE=1.
OBJECT_SWEEP = (1_000, 2_000, 4_000, 6_000, 8_000, 10_000)
QUERY_SWEEP = (100, 200, 400, 600, 800, 1_000)
MOBILITY_SWEEP = (0.01, 0.05, 0.10, 0.15, 0.20)

DEFAULT_OBJECTS = 4_000
DEFAULT_QUERIES = 400
DEFAULT_MOBILITY = 0.10

#: Methods compared in Fig. 14 (baseline comparison) and Figs. 15-16
#: (variant comparison).
FIG14_METHODS = (METHOD_TPL_FUR, METHOD_LU_PI)
FIG15_METHODS = (METHOD_UNIFORM, METHOD_LU_ONLY, METHOD_LU_PI)


def scale_factor() -> float:
    """The ``REPRO_SCALE`` cardinality multiplier (default 1.0)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def _spec(
    num_objects: int = DEFAULT_OBJECTS,
    num_queries: int = DEFAULT_QUERIES,
    object_mobility: float = DEFAULT_MOBILITY,
    query_mobility: float = DEFAULT_MOBILITY,
    timestamps: int = 30,
    seed: int = 42,
) -> WorkloadSpec:
    factor = scale_factor()
    return WorkloadSpec(
        num_objects=max(2, round(num_objects * factor)),
        num_queries=max(1, round(num_queries * factor)),
        object_mobility=object_mobility,
        query_mobility=query_mobility,
        timestamps=timestamps,
        seed=seed,
    )


def _quickened(spec: WorkloadSpec, quick: bool) -> WorkloadSpec:
    """Quick mode: quarter cardinality, 6 timestamps (for pytest benches)."""
    if not quick:
        return spec
    return replace(
        spec,
        num_objects=max(2, spec.num_objects // 4),
        num_queries=max(1, spec.num_queries // 4),
        timestamps=6,
    )


def table1_parameters() -> dict[str, object]:
    """Table 1, scaled: the dataset parameters used by every experiment."""
    factor = scale_factor()
    return {
        "# of objects": [round(n * factor) for n in OBJECT_SWEEP],
        "# of query points": [round(n * factor) for n in QUERY_SWEEP],
        "Object mobility (%)": [round(m * 100) for m in MOBILITY_SWEEP],
        "Query point mobility (%)": [round(m * 100) for m in MOBILITY_SWEEP],
        "defaults": {
            "# of objects": round(DEFAULT_OBJECTS * factor),
            "# of query points": round(DEFAULT_QUERIES * factor),
            "Object mobility (%)": round(DEFAULT_MOBILITY * 100),
            "Query point mobility (%)": round(DEFAULT_MOBILITY * 100),
        },
        "grid": f"{GRID_CELLS}x{GRID_CELLS}",
        "timestamps": 30,
        "REPRO_SCALE": factor,
    }


# ----------------------------------------------------------------------
# Figure 14: comparison with the straightforward solution (TPL-FUR)
# ----------------------------------------------------------------------
def fig14a(quick: bool = False) -> SweepResult:
    """Fig. 14(a): TPL-FUR vs Increment, varying object cardinality."""
    points = [
        (n, _quickened(_spec(num_objects=n), quick)) for n in OBJECT_SWEEP
    ]
    if quick:
        points = points[::2]
    return sweep(
        "fig14a",
        "TPL-FUR vs Increment, varying object cardinality",
        "objects",
        points,
        FIG14_METHODS,
        grid_cells=GRID_CELLS,
    )


def fig14b(quick: bool = False) -> SweepResult:
    """Fig. 14(b): TPL-FUR vs Increment, varying query-point cardinality."""
    points = [
        (nq, _quickened(_spec(num_queries=nq), quick)) for nq in QUERY_SWEEP
    ]
    if quick:
        points = points[::2]
    return sweep(
        "fig14b",
        "TPL-FUR vs Increment, varying query point cardinality",
        "queries",
        points,
        FIG14_METHODS,
        grid_cells=GRID_CELLS,
    )


# ----------------------------------------------------------------------
# Figure 15: the three variants, varying data size
# ----------------------------------------------------------------------
def fig15a(quick: bool = False) -> SweepResult:
    """Fig. 15(a): Uniform / LU-only / LU+PI, varying object cardinality."""
    points = [
        (n, _quickened(_spec(num_objects=n), quick)) for n in OBJECT_SWEEP
    ]
    if quick:
        points = points[::2]
    return sweep(
        "fig15a",
        "Uniform vs LU-only vs LU+PI, varying object cardinality",
        "objects",
        points,
        FIG15_METHODS,
        grid_cells=GRID_CELLS,
    )


def fig15b(quick: bool = False) -> SweepResult:
    """Fig. 15(b): Uniform / LU-only / LU+PI, varying query cardinality."""
    points = [
        (nq, _quickened(_spec(num_queries=nq), quick)) for nq in QUERY_SWEEP
    ]
    if quick:
        points = points[::2]
    return sweep(
        "fig15b",
        "Uniform vs LU-only vs LU+PI, varying query point cardinality",
        "queries",
        points,
        FIG15_METHODS,
        grid_cells=GRID_CELLS,
    )


# ----------------------------------------------------------------------
# Figure 16: the three variants, varying mobility
# ----------------------------------------------------------------------
def fig16a(quick: bool = False) -> SweepResult:
    """Fig. 16(a): varying the percentage of moving objects per timestamp."""
    points = [
        (round(m * 100), _quickened(_spec(object_mobility=m), quick))
        for m in MOBILITY_SWEEP
    ]
    if quick:
        points = points[::2]
    return sweep(
        "fig16a",
        "Uniform vs LU-only vs LU+PI, varying object mobility (%)",
        "object mobility %",
        points,
        FIG15_METHODS,
        grid_cells=GRID_CELLS,
    )


def fig16b(quick: bool = False) -> SweepResult:
    """Fig. 16(b): varying the percentage of moving query points."""
    points = [
        (round(m * 100), _quickened(_spec(query_mobility=m), quick))
        for m in MOBILITY_SWEEP
    ]
    if quick:
        points = points[::2]
    return sweep(
        "fig16b",
        "Uniform vs LU-only vs LU+PI, varying query point mobility (%)",
        "query mobility %",
        points,
        FIG15_METHODS,
        grid_cells=GRID_CELLS,
    )


ALL_FIGURES = {
    "fig14a": fig14a,
    "fig14b": fig14b,
    "fig15a": fig15a,
    "fig15b": fig15b,
    "fig16a": fig16a,
    "fig16b": fig16b,
}


# ----------------------------------------------------------------------
# Ablations beyond the paper (design choices DESIGN.md calls out)
# ----------------------------------------------------------------------
def ablation_grid(quick: bool = False) -> SweepResult:
    """ablA: update cost of LU+PI as a function of grid resolution."""
    spec = _quickened(_spec(timestamps=10), quick)
    resolutions = (16, 32, 64, 128, 192) if not quick else (16, 64, 128)
    result = SweepResult(
        name="ablA",
        title="LU+PI update cost vs grid resolution (cells per axis)",
        x_label="grid cells",
    )
    result.x_values = list(resolutions)
    result.series[METHOD_LU_PI] = []
    result.runs[METHOD_LU_PI] = []
    for cells in resolutions:
        run = run_method(METHOD_LU_PI, spec, grid_cells=cells)
        result.series[METHOD_LU_PI].append(run.median_update_seconds)
        result.runs[METHOD_LU_PI].append(run)
    return result


def ablation_threshold(quick: bool = False) -> SweepResult:
    """ablB: partial-insert threshold sweep (paper uses 0.8)."""
    spec = _quickened(_spec(timestamps=10), quick)
    thresholds = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95) if not quick else (0.5, 0.8, 0.95)
    result = SweepResult(
        name="ablB",
        title="LU+PI update cost vs partial-insert threshold",
        x_label="threshold",
    )
    result.x_values = list(thresholds)
    result.series[METHOD_LU_PI] = []
    result.runs[METHOD_LU_PI] = []
    for threshold in thresholds:
        config = MonitorConfig.lu_pi(
            grid_cells=GRID_CELLS, partial_insert_threshold=threshold
        )
        run = run_method(METHOD_LU_PI, spec, grid_cells=GRID_CELLS, config=config)
        result.series[METHOD_LU_PI].append(run.median_update_seconds)
        result.runs[METHOD_LU_PI].append(run)
    return result


def ablation_init(quick: bool = False, queries: int = 100) -> dict[str, float]:
    """ablC: concurrent six-sector initialisation vs six separate searches.

    Returns mean seconds per query initialisation for (a) the paper's
    concurrent ``initCRNN`` and (b) the naive alternative of six
    independent constrained NN searches plus per-candidate NN checks.
    """
    from repro.core.init_crnn import init_crnn
    from repro.grid.index import GridIndex
    from repro.mobility.network import oldenburg_like
    from repro.mobility.workload import Workload
    from repro.rnn.sae import sae_rnn

    spec = _quickened(_spec(timestamps=1), quick)
    network = oldenburg_like(spec.bounds, random.Random(spec.seed))
    workload = Workload(spec, network)
    grid = GridIndex(spec.bounds, GRID_CELLS)
    for oid, pos in workload.initial_objects().items():
        grid.insert_object(oid, pos)
    rng = random.Random(7)
    qs = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        for _ in range(max(10, queries // (4 if quick else 1)))
    ]
    start = time.perf_counter()
    for q in qs:
        init_crnn(grid, [(q, frozenset())])
    concurrent = (time.perf_counter() - start) / len(qs)
    start = time.perf_counter()
    for q in qs:
        sae_rnn(grid, q)
    separate = (time.perf_counter() - start) / len(qs)
    return {"initCRNN": concurrent, "six separate searches": separate}


def ablation_precomputation(quick: bool = False) -> dict[str, float]:
    """ablE: the cost of keeping pre-computed NN distances correct.

    Section 2 of the paper dismisses the pre-computation methods ([5],
    [15]) for dynamic settings because every location update must repair
    the affected ``dnn`` values.  This ablation measures it: mean
    seconds per object update for (a) an exactly-maintained Rdnn-tree
    and (b) the paper's grid monitor (LU+PI) serving a realistic query
    load, on the same local-motion stream.
    """
    from repro.bench.simulation import make_target
    from repro.core.events import ObjectUpdate
    from repro.mobility.network import oldenburg_like
    from repro.mobility.workload import Workload
    from repro.rnn.rdnn import RdnnIndex

    spec = _quickened(_spec(timestamps=10), quick)
    network = oldenburg_like(spec.bounds, random.Random(spec.seed))
    workload = Workload(spec, network)
    initial = workload.initial_objects()
    batches = [
        [u for u in batch if isinstance(u, ObjectUpdate)]
        for batch in workload.batches()
    ]
    total_updates = sum(len(b) for b in batches) or 1

    rdnn = RdnnIndex(max_entries=20)
    for oid, pos in initial.items():
        rdnn.insert(oid, pos)
    start = time.perf_counter()
    for batch in batches:
        for update in batch:
            rdnn.move(update.oid, update.pos)
    rdnn_time = (time.perf_counter() - start) / total_updates

    monitor = make_target(METHOD_LU_PI, grid_cells=GRID_CELLS)
    workload2 = Workload(spec, network)
    workload2.load_into(monitor)
    start = time.perf_counter()
    for batch in batches:
        monitor.process(batch)
    monitor_time = (time.perf_counter() - start) / total_updates

    return {
        "Rdnn-tree dnn maintenance": rdnn_time,
        "CRNN monitor (LU+PI) incl. queries": monitor_time,
    }


def ablation_furtree(quick: bool = False, updates: int = 20_000) -> dict[str, float]:
    """ablD: FUR-tree bottom-up updates vs plain R-tree delete+insert.

    Simulates the circ-store workload: local position jitter on a tree
    of candidates.  Returns mean seconds per update for both structures.
    """
    count = 2_000 if not quick else 400
    updates = updates if not quick else 4_000
    rng = random.Random(3)
    points = {
        oid: Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        for oid in range(count)
    }

    def local_moves() -> list[tuple[int, Point]]:
        move_rng = random.Random(11)
        out = []
        positions = dict(points)
        for _ in range(updates):
            oid = move_rng.randrange(count)
            p = positions[oid]
            np_ = Point(
                min(10_000.0, max(0.0, p.x + move_rng.gauss(0, 120))),
                min(10_000.0, max(0.0, p.y + move_rng.gauss(0, 120))),
            )
            positions[oid] = np_
            out.append((oid, np_))
        return out

    moves = local_moves()

    fur = FURTree(max_entries=20)
    for oid, pos in points.items():
        fur.insert(LeafEntry(oid, pos))
    start = time.perf_counter()
    for oid, pos in moves:
        fur.update(oid, pos)
    fur_time = (time.perf_counter() - start) / updates

    plain = RTree(max_entries=20)
    plain_pos = dict(points)
    for oid, pos in points.items():
        plain.insert(LeafEntry(oid, pos))
    start = time.perf_counter()
    for oid, pos in moves:
        plain.delete(oid, plain_pos[oid])
        plain_pos[oid] = pos
        plain.insert(LeafEntry(oid, pos))
    plain_time = (time.perf_counter() - start) / updates

    return {"FUR-tree bottom-up": fur_time, "R-tree delete+insert": plain_time}
