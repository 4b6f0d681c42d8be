"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import CRNNMonitor
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: All three circ-region storage variants of the paper.
VARIANTS = ("uniform", "lu-only", "lu+pi")

#: The data space used by most tests (smaller than the benchmark space
#: so interactions are dense).
TEST_BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)


def random_point(rng: random.Random, bounds: Rect = TEST_BOUNDS) -> Point:
    return Point(rng.uniform(bounds.xmin, bounds.xmax), rng.uniform(bounds.ymin, bounds.ymax))


def make_monitor(variant: str, grid_cells: int = 12, **kwargs) -> CRNNMonitor:
    config = MonitorConfig(
        variant=variant, grid_cells=grid_cells, bounds=TEST_BOUNDS, **kwargs
    )
    return CRNNMonitor(config)


@pytest.fixture(params=VARIANTS)
def variant(request) -> str:
    """Parametrises a test over all three monitor variants."""
    return request.param


@pytest.fixture(autouse=True, scope="module")
def _reference_runs_stay_in_their_module():
    """The exactness harness records each reference run for reuse; drop
    the records when a module ends, so that later modules — and the
    worker processes they fork — do not carry them."""
    yield
    from .test_exactness import _REFERENCES

    _REFERENCES.clear()
