"""Host-speed probe: takes slow phases of a shared host out of the timings.

The reference host is a 2-core VM whose cores switch, each on its own and
every 5-25 s, between two speeds a quarter apart: 100-tick medians of one
``obj-move`` stream in one process read 61, 61, 51, 60, 61, 60, 61, 48,
56, 58, 50 ms, CPU time moving in step with wall time.  A phase outlasts
any run the driver's budget allows, so the spread of a raw median over
ten runs is 8-20 % — and the driver refuses a benchmark whose spread
exceeds the metric's bound, which the issue caps at 10 %.  So every
timing the benchmark gates on is *speed-normalised*: a fixed probe — a few hundred small-array NumPy
calls, the operation the monitor's vectorized paths are made of — runs
just before each timed tick, outside the timed region, and the tick's
time is scaled by ``REF_S / probe`` with the probe smoothed over
neighbouring ticks.  The raw figures are kept next to the normalised ones
in the result file and in ``compare``.

Nothing of the system under test is pinned or moved: the probe is run by
short-lived threads of the bench, each confined to one CPU (:func:`read`)
— the CPUs the processes that do the work last ran on.  A single process
was never seen to leave its core during a run; the sharded monitor's two
workers are read core by core (:func:`factors_each`).

The probe is bench code: a change to the program cannot move it.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter
from typing import Iterable

import numpy as np

#: Between the probe's two usual readings on the reference host (0.61 and
#: 0.76 ms).  It only fixes the scale: a tick that takes 50 ms while the
#: probe reads ``REF_S`` is reported as 50 ms.
REF_S = 0.68e-3

#: Probes on each side of a tick whose median scales it.
SMOOTH = 5

#: Exponent of the scale when the system under test runs in *other*
#: processes that sleep between ticks (the shard workers, the server
#: child).  Those slow down less than the probe does in the host's slowest
#: phase: in eight ``obj-move-k2`` runs recorded back to back, three of them
#: in that phase, the probe went from 0.77 to 1.03 ms (x 1.33) while stripe
#: time, worker CPU and tick time went up x 1.15-1.2, and scaled in full
#: (exponent 1) the slow runs read 7-11 % low; ``serve-mixed`` the same
#: (8 % low).  Exponents 0.7-0.8 level them; in ordinary phases anything
#: from 0.8 to 1 repeats equally well.  The bench process itself (the
#: direct workloads) follows the probe in full.
SLEEPER_EXPONENT = 0.8

_X = np.random.default_rng(0).random(300)
_X100 = _X[:100]


def probe() -> float:
    """Seconds taken by the fixed reference work (~0.8 ms).

    Many NumPy calls on 30-300 element arrays: of the probes tried
    (interpreter loops, dict/set churn, small/medium/large arrays, fancy
    indexing, sorts) this one tracked the monitor's own slow-downs best —
    two runs of the same ticks that differed by 21 % raw differed by 2 %
    after scaling; probes over >= 3000 elements left 8 %.
    """
    t0 = perf_counter()
    for x, reps in ((_X100, 100), (_X, 60)):
        for _ in range(reps):
            a = x - 0.5
            b = a * a + x * x
            int(np.argmin(b))
            np.concatenate((a, b))
    for _ in range(150):
        a = _X100[10:40]
        (a * a).sum()
    return perf_counter() - t0


def read(cpu: int) -> float:
    """:func:`probe` on CPU ``cpu``, taken by a short-lived thread confined to it.

    The calling thread and the system under test stay where the scheduler
    put them.  The thread arrives with cold caches, so it runs the probe
    twice and keeps the second.  Every workload is read this way, so their
    milliseconds share one scale.
    """
    readings: list[float] = []

    def run() -> None:
        try:
            os.sched_setaffinity(threading.get_native_id(), {cpu})
        except (AttributeError, OSError):
            pass  # cannot be confined here: read whichever core we are on
        probe()
        readings.append(probe())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    return readings[0]


def cpus_of(pids: Iterable[int]) -> set[int]:
    """The CPUs processes ``pids`` last ran on (field 39 of ``/proc/<pid>/stat``)."""
    cpus = set()
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            cpus.add(int(fh.read().rpartition(")")[2].split()[36]))
    return cpus


def probe_each(pids: Iterable[int]) -> dict[int, float]:
    """Host speed where processes ``pids`` compute: a reading of each of their cores.

    Called just before a timed tick, while those processes wait for it.
    Only a core that has just worked reads true: a vCPU woken from idle
    reads anything between 0.6 and 5 ms for the same 0.8 ms of work.
    """
    return {cpu: read(cpu) for cpu in cpus_of(pids)}


def probe_on(pid: int) -> float:
    """:func:`probe_each` for one process: the reading of its core."""
    return next(iter(probe_each((pid,)).values()))


def scale_after(pid: int) -> float:
    """Scale for a one-off timing, such as a set-up, that ``pid`` has just worked through.

    Median of three readings of its core, taken at once, while it is hot.
    """
    return REF_S / statistics.median(probe_on(pid) for _ in range(3))


def factors_each(probes: list[dict[int, float]], exponent: float = 1.0) -> list[float]:
    """Per-tick scale ``(REF_S / smoothed probe) ** exponent`` (multiply a timing by it).

    Each core's readings are smoothed on their own — the cores change
    speed independently, and one wild reading of a core that had gone idle
    must not leak into its neighbour's — and a tick computed on several
    cores is scaled by the mean of theirs.  The two stripes of the sharded
    monitor take about the same CPU time each, so the mean is the scale of
    their summed CPU time, and it repeats better than the slower core's
    reading alone (ten-run spread of ``obj-move-k2`` 4 % against 8 %): the
    larger of two noisy readings is noisier than either.
    """
    out = []
    for i, tick in enumerate(probes):
        window = probes[max(0, i - SMOOTH) : i + SMOOTH + 1]
        smoothed = [statistics.median(p[cpu] for p in window if cpu in p) for cpu in tick]
        out.append((REF_S / statistics.fmean(smoothed)) ** exponent)
    return out


def factors(probes: list[float], exponent: float = 1.0) -> list[float]:
    """:func:`factors_each` for the readings of one process's core."""
    return factors_each([{0: p} for p in probes], exponent)
