"""Ablation benches for the design choices DESIGN.md calls out.

* ablA — grid resolution vs update cost (the paper fixes 128x128;
  resolution is the main tuning knob of any grid-based monitor);
* ablB — partial-insert threshold sweep (the paper picks 80%);
* ablC — the concurrent six-sector initialisation vs six separate
  constrained searches;
* ablD — FUR-tree bottom-up updates vs plain R-tree delete+insert for
  the circ-region store's workload.
"""

from repro.bench.experiments import (
    ablation_furtree,
    ablation_grid,
    ablation_init,
    ablation_threshold,
)
from repro.bench.reporting import format_sweep
from repro.bench.simulation import METHOD_LU_PI

from benchmarks.conftest import steady_state_stepper


def test_ablation_grid_resolution(benchmark):
    result = ablation_grid(quick=True)
    print("\n" + format_sweep(result))
    benchmark(steady_state_stepper(METHOD_LU_PI))


def test_ablation_partial_insert_threshold(benchmark):
    result = ablation_threshold(quick=True)
    print("\n" + format_sweep(result))
    benchmark(steady_state_stepper(METHOD_LU_PI))


def test_ablation_init_strategy(benchmark):
    from repro.core.init_crnn import init_crnn
    from repro.core.config import DEFAULT_BOUNDS
    from repro.grid.index import GridIndex
    from repro.geometry.point import Point
    import random

    timing = ablation_init(quick=True, queries=40)
    print(
        "\nablC: initCRNN %.3f ms vs six separate searches %.3f ms per query"
        % (timing["initCRNN"] * 1e3, timing["six separate searches"] * 1e3)
    )
    rng = random.Random(0)
    grid = GridIndex(DEFAULT_BOUNDS, 128)
    for oid in range(1_000):
        grid.insert_object(oid, Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)))
    queries = [Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(16)]
    idx = iter(range(10**9))

    benchmark(lambda: init_crnn(grid, [(queries[next(idx) % len(queries)], frozenset())]))


def test_ablation_furtree_updates(benchmark):
    timing = ablation_furtree(quick=True, updates=2_000)
    print(
        "\nablD: FUR-tree bottom-up %.4f ms vs R-tree delete+insert %.4f ms per update"
        % (timing["FUR-tree bottom-up"] * 1e3, timing["R-tree delete+insert"] * 1e3)
    )
    assert timing["FUR-tree bottom-up"] < timing["R-tree delete+insert"]

    import random

    from repro.geometry.point import Point
    from repro.rtree.furtree import FURTree
    from repro.rtree.node import LeafEntry

    rng = random.Random(1)
    tree = FURTree(max_entries=20)
    positions = {}
    for oid in range(1_000):
        positions[oid] = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        tree.insert(LeafEntry(oid, positions[oid]))

    def local_update():
        oid = rng.randrange(1_000)
        p = positions[oid]
        np_ = Point(
            min(10_000.0, max(0.0, p.x + rng.gauss(0, 100))),
            min(10_000.0, max(0.0, p.y + rng.gauss(0, 100))),
        )
        positions[oid] = np_
        tree.update(oid, np_)

    benchmark(local_update)
