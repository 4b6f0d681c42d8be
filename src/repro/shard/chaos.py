"""Deterministic fault injection for the sharded executor.

The chaos harness kills, delays, and garbles shard workers *from the
inside*, on a schedule derived purely from a seed — so a failing chaos
run replays exactly, and the chaos test suite can assert the strongest
property the supervisor promises: under injected faults, the sharded
monitor's drained events and logical counters stay **bit-identical** to
the single monitor's.

Injection points
----------------
Every intra-request failure a coordinator can observe falls into one of
three classes, and the harness covers each:

``mid_tick``
    SIGKILL on receipt of the request, before any engine state mutates
    (coordinator sees: no reply, no work done).
``pre_reply``
    SIGKILL after the request is fully computed, before the reply is
    sent (no reply, work done — the recovery replay must redo it).
``post_reply``
    SIGKILL after the reply is sent (reply merged by the coordinator;
    the next request finds the worker dead, and the replay re-executes
    the already-merged request with its reply discarded).

A kill at any other instant inside the computation is indistinguishable
to the coordinator from one of these: the worker's partial state dies
with it, so only "did the state-advance complete" × "did the reply
arrive" matters.  ``delay_every`` holds replies past the supervisor's
op deadline (exercising hang detection), and ``malform_every`` sends
replies that violate the wire protocol (exercising the
protocol-violation path).

Determinism
-----------
An agent's schedule is a pure function of ``(seed, shard,
incarnation)``; agents start **disarmed** and only count eligible
requests once the supervisor sends ``arm`` — after rehydration replay
completes — so recovery traffic is exempt and a chaos run's fault
sequence does not depend on timing.

Smoke CLI
---------
``python -m repro.shard.chaos --seconds 60`` (the ``make chaos-smoke``
target) runs a seeded kill-loop: a single monitor and a supervised
process-sharded monitor consume the same stream while workers are
killed every few ticks, asserting event parity every tick and logical
counter parity at the end.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ChaosSpec", "ChaosAction", "ChaosAgent", "main"]

#: All coordinator-observable kill points (module docstring).
KILL_POINTS = ("mid_tick", "pre_reply", "post_reply")


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded fault-injection schedule for shard workers.

    Parameters
    ----------
    seed:
        Root of every agent's private RNG (with shard and incarnation).
    kill_every:
        SIGKILL the worker on every Nth eligible request (0 = never).
        The first kill lands uniformly within the first N requests so
        shards do not all die on the same tick.
    kill_points:
        Candidate kill points; each kill picks one pseudo-randomly.
    delay_every:
        Sleep before replying on every Nth eligible request (0 = never).
    delay_seconds:
        Length of the injected delay (pair with a shorter op deadline
        to exercise hang detection).
    malform_every:
        Send a protocol-violating reply on every Nth eligible request
        (0 = never).
    ops:
        Request ops eligible for injection (default: ticks only).
    shards:
        Restrict injection to these shard ids (``None`` = all).
    """

    seed: int = 0
    kill_every: int = 0
    kill_points: tuple = KILL_POINTS
    delay_every: int = 0
    delay_seconds: float = 0.0
    malform_every: int = 0
    ops: tuple = ("tick",)
    shards: Optional[tuple] = None

    def __post_init__(self):
        for point in self.kill_points:
            if point not in KILL_POINTS:
                raise ValueError(f"unknown kill point {point!r}")


@dataclass
class ChaosAction:
    """What to inject around one request (returned by :meth:`ChaosAgent.plan`)."""

    #: Kill point for this request, or ``None``.
    kill_point: Optional[str] = None
    #: Seconds to sleep before replying (0.0 = none).
    delay: float = 0.0
    #: Whether to send a protocol-violating reply.
    malform: bool = False


@dataclass
class ChaosAgent:
    """One worker incarnation's deterministic fault schedule.

    Lives inside the worker process.  Starts disarmed; the supervisor's
    ``arm`` request (sent after spawn-and-rehydrate completes) starts
    the eligible-request count, so replayed recovery traffic never
    triggers injection and the schedule is timing-independent.
    """

    spec: ChaosSpec
    shard: int
    incarnation: int
    armed: bool = False
    _count: int = field(default=0, repr=False)
    _next_kill: int = field(default=0, repr=False)

    def __post_init__(self):
        import random

        self._rng = random.Random(
            f"chaos:{self.spec.seed}:{self.shard}:{self.incarnation}"
        )
        if self.spec.kill_every > 0:
            self._next_kill = self._rng.randrange(1, self.spec.kill_every + 1)

    def arm(self) -> None:
        """Start counting eligible requests (recovery replay finished)."""
        self.armed = True

    def plan(self, op: str) -> Optional[ChaosAction]:
        """The injection (if any) scheduled for this request."""
        spec = self.spec
        if (
            not self.armed
            or op not in spec.ops
            or (spec.shards is not None and self.shard not in spec.shards)
        ):
            return None
        self._count += 1
        action = ChaosAction()
        if spec.kill_every > 0 and self._count == self._next_kill:
            action.kill_point = self._rng.choice(list(spec.kill_points))
            self._next_kill += spec.kill_every
        if spec.delay_every > 0 and self._count % spec.delay_every == 0:
            action.delay = spec.delay_seconds
        if spec.malform_every > 0 and self._count % spec.malform_every == 0:
            action.malform = True
        if action.kill_point is None and not action.malform and action.delay == 0.0:
            return None
        return action


# ----------------------------------------------------------------------
# Smoke CLI (``make chaos-smoke``)
# ----------------------------------------------------------------------
def _smoke_stream(rng, bounds, n_objects: int, n_queries: int):
    """Deterministic initial batch + tick generator for the kill-loop."""
    from repro.core.events import ObjectUpdate, QueryUpdate
    from repro.geometry.point import Point

    def rand_point():
        return Point(
            rng.uniform(bounds.xmin, bounds.xmax),
            rng.uniform(bounds.ymin, bounds.ymax),
        )

    initial = [ObjectUpdate(oid, rand_point()) for oid in range(n_objects)]
    initial += [QueryUpdate(1000 + q, rand_point()) for q in range(n_queries)]

    def tick_batch():
        batch = [
            ObjectUpdate(rng.randrange(n_objects), rand_point())
            for _ in range(max(4, n_objects // 8))
        ]
        if rng.random() < 0.3:
            batch.append(QueryUpdate(1000 + rng.randrange(n_queries), rand_point()))
        return batch

    return initial, tick_batch


def run_kill_loop(
    seconds: float,
    shards: int = 2,
    kill_every: int = 5,
    seed: int = 0,
    min_ticks: int = 0,
) -> dict:
    """Run the seeded kill-loop; returns a summary dict, raises on any
    parity violation.

    Drives a single :class:`~repro.core.monitor.CRNNMonitor` and a
    supervised process-sharded monitor over the same deterministic
    stream until the time budget (and ``min_ticks``) is spent, with
    workers SIGKILLed every ``kill_every`` ticks at seeded kill points.
    Event streams are compared every tick, logical counters at the end.
    """
    import random

    from repro.core.config import MonitorConfig
    from repro.core.monitor import CRNNMonitor
    from repro.core.stats import logical_subset
    from repro.shard.monitor import ShardedCRNNMonitor
    from repro.shard.supervisor import SupervisionConfig

    config = MonitorConfig(grid_cells=16)
    spec = ChaosSpec(seed=seed, kill_every=kill_every)
    supervision = SupervisionConfig(op_deadline=30.0, checkpoint_interval=4 * kill_every)
    rng = random.Random(seed)
    initial, tick_batch = _smoke_stream(rng, config.bounds, 240, 16)
    mono = CRNNMonitor(config)
    sharded = ShardedCRNNMonitor(
        config, shards=shards, executor="process",
        supervision=supervision, chaos=spec,
    )
    ticks = 0
    deadline = time.monotonic() + seconds
    try:
        assert mono.process(initial) == sharded.process(initial)
        while time.monotonic() < deadline or ticks < min_ticks:
            batch = tick_batch()
            expect = mono.process(batch)
            got = sharded.process(batch)
            assert got == expect, (
                f"event stream diverged from the single monitor at tick {ticks}"
            )
            ticks += 1
        base = logical_subset(mono.stats.snapshot())
        got = logical_subset(sharded.aggregated_stats().snapshot())
        assert got == base, f"logical counters diverged: {got} != {base}"
        sharded.validate()
        report = sharded.supervision_report()
        if ticks >= 2 * kill_every:
            assert report["restarts_total"] > 0, (
                "kill loop ran but no worker was ever killed — chaos miswired"
            )
    finally:
        sharded.close()
    return {
        "ticks": ticks,
        "shards": shards,
        "kill_every": kill_every,
        "seed": seed,
        "restarts_total": report["restarts_total"],
        "degraded": sorted(report["degraded_shards"]),
        "logical_counters": base,
    }


def main(argv: Optional[list] = None) -> int:
    """CLI entry point (``python -m repro.shard.chaos``)."""
    parser = argparse.ArgumentParser(
        description="seeded worker-kill loop asserting sharded/single parity"
    )
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="wall-clock budget for the loop (default: %(default)s)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker count K (default: %(default)s)")
    parser.add_argument("--kill-every", type=int, default=5,
                        help="SIGKILL each worker every Nth tick (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=20260807,
                        help="chaos + stream seed (default: %(default)s)")
    parser.add_argument("--min-ticks", type=int, default=0,
                        help="run at least this many ticks regardless of time")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    summary = run_kill_loop(
        args.seconds, shards=args.shards, kill_every=args.kill_every,
        seed=args.seed, min_ticks=args.min_ticks,
    )
    summary["wall_seconds"] = round(time.monotonic() - t0, 1)
    print(f"[chaos-smoke] parity held: {summary}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
