"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.core.oracle import BruteForceMonitor
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: All three circ-region storage variants of the paper.
VARIANTS = ("uniform", "lu-only", "lu+pi")

#: The data space used by most tests (smaller than the benchmark space
#: so interactions are dense).
TEST_BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def random_point(rng: random.Random, bounds: Rect = TEST_BOUNDS) -> Point:
    return Point(rng.uniform(bounds.xmin, bounds.xmax), rng.uniform(bounds.ymin, bounds.ymax))


def large_tick_batches(rng: random.Random, objects: int, queries: int, ticks: int, moves: int):
    """A load batch, then ``ticks`` batches of ``moves`` location updates
    (oids repeat): large enough for every array path's size threshold."""
    load = [ObjectUpdate(oid, random_point(rng)) for oid in range(objects)]
    load += [QueryUpdate(10_000 + i, random_point(rng)) for i in range(queries)]
    return [load] + [
        [ObjectUpdate(rng.randrange(objects), random_point(rng)) for _ in range(moves)]
        for _ in range(ticks)
    ]


def make_monitor(variant: str, grid_cells: int = 12, **kwargs) -> CRNNMonitor:
    config = MonitorConfig(
        variant=variant, grid_cells=grid_cells, bounds=TEST_BOUNDS, **kwargs
    )
    return CRNNMonitor(config)


def make_pair(variant: str, grid_cells: int = 12) -> tuple[CRNNMonitor, BruteForceMonitor]:
    """An incremental monitor and its brute-force oracle."""
    return make_monitor(variant, grid_cells), BruteForceMonitor()


def populate(
    monitor: CRNNMonitor,
    oracle: BruteForceMonitor,
    rng: random.Random,
    n_objects: int,
    n_queries: int,
) -> tuple[list[int], list[int]]:
    """Insert matching random objects/queries into monitor and oracle."""
    oids = list(range(n_objects))
    for oid in oids:
        p = random_point(rng)
        monitor.add_object(oid, p)
        oracle.add_object(oid, p)
    qids = list(range(10_000, 10_000 + n_queries))
    for qid in qids:
        p = random_point(rng)
        got = monitor.add_query(qid, p)
        want = oracle.add_query(qid, p)
        assert got == want, f"initial result mismatch for q{qid}"
    return oids, qids


def assert_agreement(
    monitor: CRNNMonitor, oracle: BruteForceMonitor, qids: list[int], context: str = ""
) -> None:
    for qid in qids:
        got = monitor.rnn(qid)
        want = oracle.rnn(qid)
        assert got == want, (
            f"{context}: q{qid} monitor={sorted(got)} oracle={sorted(want)}"
        )


@pytest.fixture(params=VARIANTS)
def variant(request) -> str:
    """Parametrises a test over all three monitor variants."""
    return request.param
