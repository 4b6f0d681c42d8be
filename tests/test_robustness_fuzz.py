"""Property-based fuzzing of the resilience layer.

Hypothesis draws the seeds of churning update streams degraded by the
seeded fault injector; guarded monitors of all three variants hold the
harness contract on them (the oracle fed the guard-admitted stream after
every tick, ``validate()`` at the end), and a checkpoint restored
mid-stream continues with the same results.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.robustness.faults import FaultInjector, FaultSpec

from .conftest import VARIANTS
from .test_exactness import Stream, check, churn_batches, restored, single


def _faulted(seed: int, policy: str, faults: FaultSpec, ticks: int = 10) -> Stream:
    batches = FaultInjector(faults).stream(churn_batches(random.Random(seed), ticks))
    return Stream(None, list(batches), guard_policy=policy)


def _harsh(seed: int) -> FaultSpec:
    return FaultSpec(drop=0.12, duplicate=0.1, reorder=0.1, stale=0.1, corrupt=0.1, seed=seed)


class TestFaultedStreamsStayExact:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_drop_policy_all_variants(self, seed):
        for variant in VARIANTS:
            check(variant, _faulted(seed, "drop", _harsh(seed)))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_clamp_policy_all_variants(self, seed):
        for variant in VARIANTS:
            check(variant, _faulted(seed, "clamp", _harsh(seed)))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_checkpoint_of_faulted_run_round_trips(self, seed):
        stream = _faulted(seed, "drop", FaultSpec.mild(seed=seed), ticks=6)
        check("lu+pi", stream, single, at=3, then=restored())
