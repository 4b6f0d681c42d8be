"""Deterministic operation-count comparison of the three variants.

Wall-clock numbers at reproduction scale are noisy; operation counters
are exactly reproducible (same workload seed => same counts, bit for
bit) and directly express *why* the paper's optimisations win:

* ``nn_searches`` — the searches Uniform performs eagerly on every
  circ-region touch and lazy-update mostly avoids;
* ``circ_lazy_radius_updates`` — certificate moves absorbed by a radius
  adjustment alone;
* ``partial_insert_hash_hits`` — circles kept out of the circle table
  by the partial-insert threshold.

Used by ``run_all`` (the ``opsreport`` experiment) and quotable in
EXPERIMENTS.md as noise-free evidence for Figures 15-16.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.bench.simulation import (
    METHOD_LU_ONLY,
    METHOD_LU_PI,
    METHOD_UNIFORM,
    run_method,
)
from repro.mobility.network import RoadNetwork, oldenburg_like
from repro.mobility.workload import WorkloadSpec

#: The counters worth comparing across variants.
REPORT_COUNTERS = (
    "nn_searches",
    "circ_nn_searches_triggered",
    "circ_lazy_radius_updates",
    "partial_insert_hash_hits",
    "constrained_nn_searches",
    "result_changes",
)

VARIANT_METHODS = (METHOD_UNIFORM, METHOD_LU_ONLY, METHOD_LU_PI)


def ops_report(
    spec: WorkloadSpec,
    grid_cells: int = 128,
    methods: Sequence[str] = VARIANT_METHODS,
    network: Optional[RoadNetwork] = None,
) -> dict[str, dict[str, int]]:
    """Counter table: method -> counter name -> count over the whole run."""
    if network is None:
        network = oldenburg_like(spec.bounds, random.Random(spec.seed))
    out: dict[str, dict[str, int]] = {}
    for method in methods:
        run = run_method(method, spec, network=network, grid_cells=grid_cells)
        out[method] = {name: run.stats.get(name, 0) for name in REPORT_COUNTERS}
    return out


def format_ops_report(report: dict[str, dict[str, int]]) -> str:
    """Fixed-width text table of an ops report."""
    methods = list(report)
    counters = [c for c in REPORT_COUNTERS if any(report[m].get(c) for m in methods)]
    name_w = max(len(c) for c in counters) if counters else 10
    col_w = max(9, *(len(m) for m in methods))
    lines = ["operation counts over the full run (deterministic):"]
    lines.append(
        " " * name_w + "  " + "  ".join(m.rjust(col_w) for m in methods)
    )
    for counter in counters:
        lines.append(
            counter.ljust(name_w)
            + "  "
            + "  ".join(str(report[m].get(counter, 0)).rjust(col_w) for m in methods)
        )
    return "\n".join(lines)


def ops_report_markdown(report: dict[str, dict[str, int]]) -> str:
    """Markdown table of an ops report (for EXPERIMENTS.md)."""
    methods = list(report)
    lines = [
        "| counter | " + " | ".join(methods) + " |",
        "|---|" + "---|" * len(methods),
    ]
    for counter in REPORT_COUNTERS:
        if not any(report[m].get(counter) for m in methods):
            continue
        cells = [str(report[m].get(counter, 0)) for m in methods]
        lines.append(f"| {counter} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
