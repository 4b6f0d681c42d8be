"""Chaos parity: the sharded monitor under injected worker faults.

The strongest robustness claim in the repo: with workers being SIGKILLed
on a seeded schedule — at every coordinator-observable kill point — the
supervised process-sharded monitor's event stream and logical counters
stay **bit-identical** to a single monitor's over the whole run.  The
quick tier-1 tests cover each kill point at K=2; the heavy suite
(``pytest -m chaos``, ``make chaos-heavy``) runs the acceptance matrix:
K ∈ {2, 4, 8}, ≥ 200 ticks, kills every ≤ 10 ticks, all kill points.
"""

from __future__ import annotations

import random

import pytest

from repro.core.monitor import CRNNMonitor
from repro.core.stats import LOGICAL_COUNTERS
from repro.shard import ChaosSpec, ShardedCRNNMonitor, SupervisionConfig
from repro.shard.chaos import KILL_POINTS, ChaosAgent

from .test_exactness import churn_batches
from .test_shard_parity import _config


def _chaos_run(
    shards: int,
    ticks: int,
    chaos: ChaosSpec,
    seed: int,
    checkpoint_interval: int = 25,
) -> dict:
    """Drive mono + supervised sharded monitors in lockstep under chaos.

    Asserts event parity on every tick and logical-counter parity plus
    ``validate()`` at the end; returns the supervision report.
    """
    cfg = _config()
    supervision = SupervisionConfig(
        op_deadline=60.0, backoff_base=0.01, checkpoint_interval=checkpoint_interval
    )
    mono = CRNNMonitor(cfg)
    sharded = ShardedCRNNMonitor(
        cfg, shards=shards, executor="process",
        supervision=supervision, chaos=chaos,
    )
    with sharded:
        for t, batch in enumerate(
            churn_batches(random.Random(seed), timestamps=ticks)
        ):
            assert mono.process(batch) == sharded.process(batch), (
                f"K={shards} kill_points={chaos.kill_points} t={t}"
            )
        single = mono.stats.snapshot()
        agg = sharded.aggregated_stats().snapshot()
        for name in LOGICAL_COUNTERS:
            assert single[name] == agg[name], (
                f"K={shards}: {name} {single[name]} != {agg[name]}"
            )
        assert mono.results() == sharded.results()
        mono.validate()
        sharded.validate()
        return sharded.supervision_report()


class TestKillPoints:
    """Each coordinator-observable kill point in isolation (tier 1)."""

    @pytest.mark.parametrize("kill_point", KILL_POINTS)
    def test_parity_under_kills(self, kill_point):
        chaos = ChaosSpec(seed=60, kill_every=5, kill_points=(kill_point,))
        report = _chaos_run(shards=2, ticks=25, chaos=chaos, seed=601)
        assert report["restarts_total"] > 0, f"{kill_point}: chaos never fired"
        assert not report["degraded_shards"]

    def test_parity_under_mixed_kill_points(self):
        chaos = ChaosSpec(seed=61, kill_every=4)
        report = _chaos_run(shards=2, ticks=30, chaos=chaos, seed=611)
        assert report["restarts_total"] >= 5

    def test_parity_with_kills_and_delays(self):
        # Kills and sub-deadline delays together: the delay must not be
        # misclassified as a hang, and the kills must still recover.
        chaos = ChaosSpec(
            seed=62, kill_every=6, delay_every=5, delay_seconds=0.05
        )
        report = _chaos_run(shards=2, ticks=24, chaos=chaos, seed=621)
        assert report["restarts_total"] > 0

    def test_restricted_to_one_shard(self):
        # Injection scoped to shard 1: shard 0's incarnation never moves.
        chaos = ChaosSpec(seed=63, kill_every=5, shards=(1,))
        report = _chaos_run(shards=2, ticks=20, chaos=chaos, seed=631)
        assert report["restarts_by_shard"].get(1, 0) > 0
        assert 0 not in report["restarts_by_shard"]
        assert report["incarnations"][0] == 0


class TestChaosDeterminism:
    def test_agent_schedule_is_pure_function_of_seed(self):
        spec = ChaosSpec(seed=99, kill_every=3, delay_every=4,
                         delay_seconds=0.5, malform_every=5)
        runs = []
        for _ in range(2):
            agent = ChaosAgent(spec, shard=1, incarnation=2)
            agent.arm()
            runs.append([
                (a.kill_point, a.delay, a.malform) if a else None
                for a in (agent.plan("tick") for _ in range(30))
            ])
        assert runs[0] == runs[1]
        assert any(r is not None for r in runs[0])

    def test_incarnations_draw_distinct_schedules(self):
        spec = ChaosSpec(seed=99, kill_every=10)
        first = [ChaosAgent(spec, 0, inc)._next_kill for inc in range(8)]
        assert len(set(first)) > 1, "kill offsets must vary by incarnation"

    def test_disarmed_agent_never_fires(self):
        agent = ChaosAgent(ChaosSpec(seed=1, kill_every=1), shard=0, incarnation=0)
        assert all(agent.plan("tick") is None for _ in range(20))

    def test_ineligible_ops_are_exempt(self):
        agent = ChaosAgent(ChaosSpec(seed=1, kill_every=1), shard=0, incarnation=0)
        agent.arm()
        assert agent.plan("checkpoint") is None
        assert agent.plan("restore") is None
        assert agent.plan("tick") is not None


class TestKillLoopSmoke:
    def test_kill_loop_entrypoint(self):
        # The `make chaos-smoke` loop, time-boxed for tier 1: a short
        # budget with a tick floor high enough to guarantee kills.
        from repro.shard.chaos import run_kill_loop

        summary = run_kill_loop(seconds=1.0, shards=2, kill_every=4,
                                seed=20260807, min_ticks=12)
        assert summary["ticks"] >= 12
        assert summary["restarts_total"] > 0


# ----------------------------------------------------------------------
# Heavy acceptance matrix (deselected by default; `pytest -m chaos`)
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("shards", (2, 4, 8))
def test_chaos_acceptance_matrix(shards):
    """ISSUE-6 acceptance: ≥ 200 ticks, kills every ≤ 10 ticks, all
    kill points, K ∈ {2, 4, 8} — bit-identical throughout."""
    chaos = ChaosSpec(seed=600 + shards, kill_every=10)
    report = _chaos_run(
        shards=shards, ticks=200, chaos=chaos, seed=6000 + shards,
        checkpoint_interval=40,
    )
    assert report["restarts_total"] >= shards
    assert not report["degraded_shards"]


@pytest.mark.chaos
def test_chaos_acceptance_rapid_kills_with_degradation_headroom():
    """Kills every 3 ticks with a finite lifetime budget: shards that
    exhaust it must degrade — and parity must still hold end to end."""
    cfg = _config()
    mono = CRNNMonitor(cfg)
    sharded = ShardedCRNNMonitor(
        cfg, shards=4, executor="process",
        supervision=SupervisionConfig(
            op_deadline=60.0, backoff_base=0.01, checkpoint_interval=20,
            max_restarts=20, on_shard_failure="degrade",
        ),
        chaos=ChaosSpec(seed=77, kill_every=3),
    )
    with sharded:
        for batch in churn_batches(random.Random(770), timestamps=200):
            assert mono.process(batch) == sharded.process(batch)
        single = mono.stats.snapshot()
        agg = sharded.aggregated_stats().snapshot()
        for name in LOGICAL_COUNTERS:
            assert single[name] == agg[name]
        mono.validate()
        sharded.validate()
        report = sharded.supervision_report()
        assert report["degraded_shards"], "budget was sized to force degradation"
