"""Checkpoint/recovery: serialize a monitor, restore it provably intact.

The monitor is a main-memory system; a process restart loses everything.
The checkpoint format captures the *ground truth* the monitor serves —
object positions, query registrations (with their exclude sets), the
configuration, and the result sets at capture time — as a plain
JSON-serializable dict.  Recovery builds a fresh monitor and replays the
snapshot through the normal ``add_object``/``add_query`` path, so every
derived structure (grid cells, pie registrations, circ-records, NN-Hash)
is reconstructed by the same audited code that built the original, and
the restored results are *recomputed*, then verified against the
recorded ones: a corrupt or stale snapshot fails loudly at restore time
instead of silently serving wrong answers.

Derived state (the circle table, per-sector certificates) is deliberately
not serialized — it is reproducible, and re-deriving it is the proof
that the snapshot is consistent.

**Exact mode** (:func:`snapshot_exact` / :func:`restore_exact`) extends
the base format with the one piece of *history-dependent* state the
canonical rebuild cannot reproduce: the circ-store's record map and the
query table's pie bookkeeping.  Under lazy-update a record's candidate,
certificate, and radius all depend on the order of past updates (a
stale-but-sound candidate or certificate is kept instead of
re-searching; under distance ties even the constrained NN choice is
path-dependent), the pie registration radius is hysteretic, and all of
them feed the logical counters (``circ_lazy_radius_updates``,
``circ_nn_searches_triggered``, ...), so a monitor rebuilt through the
normal path — whose records are the freshly computed ones — would
diverge from the original on future ticks even though its answers are
identical.  Exact restore rebuilds canonically (proving the ground
truth consistent), then replaces the record map outright with the
recorded one, resynchronises the derived indexes (NN-Hash, candidate
index, circle table, pie cell registrations), checks that the
recorded records reproduce exactly the verified RNN results (RNN status
*is* ground truth — anything else is corruption), and overwrites the
counters with the recorded values.  The result continues bit-identically
to a monitor that never stopped: same event stream, same logical
counters.  This is the foundation of crash recovery in
:mod:`repro.shard.journal`.
"""

from __future__ import annotations

import json
import logging
from typing import TYPE_CHECKING, Any

from repro.core.config import MonitorConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import CRNNMonitor

logger = logging.getLogger("repro.robustness.checkpoint")

#: Format marker and version of the snapshot dict.
FORMAT = "crnn-checkpoint"
VERSION = 1


class CheckpointError(ValueError):
    """A snapshot is malformed or fails post-restore verification."""


def snapshot(monitor: "CRNNMonitor") -> dict[str, Any]:
    """Serialize ``monitor`` to a JSON-safe dict (the checkpoint)."""
    cfg = monitor.config
    with monitor.obs.tracer.span(
        "checkpoint.snapshot", objects=len(monitor.grid), queries=len(monitor.qt)
    ):
        snap = _build_snapshot(monitor, cfg)
    monitor.stats.checkpoints_saved += 1
    logger.info(
        "checkpoint saved: %d objects, %d queries",
        len(snap["objects"]), len(snap["queries"]),
    )
    return snap


def build_snapshot_dict(
    cfg: MonitorConfig,
    objects: dict[int, Any],
    queries: list[tuple[int, Any, Any]],
    results: dict[int, Any],
    stats: dict[str, int],
) -> dict[str, Any]:
    """Assemble a checkpoint dict from already-extracted monitor state.

    Shared by :func:`snapshot` and the sharded facade's coordinator-side
    checkpoint (:meth:`~repro.shard.monitor.ShardedCRNNMonitor.checkpoint`),
    so both produce the same :data:`FORMAT`.  ``objects`` maps oid to
    position, ``queries`` is ``(qid, pos, exclude)`` triples, ``results``
    maps qid to its RNN set, ``stats`` is a counter snapshot dict.
    """
    return {
        "format": FORMAT,
        "version": VERSION,
        "config": {
            "variant": cfg.variant,
            "grid_cells": cfg.grid_cells,
            "partial_insert_threshold": cfg.partial_insert_threshold,
            "guard_policy": cfg.guard_policy,
            "bounds": [cfg.bounds.xmin, cfg.bounds.ymin, cfg.bounds.xmax, cfg.bounds.ymax],
        },
        "objects": [[oid, pos[0], pos[1]] for oid, pos in sorted(objects.items())],
        "queries": [
            [qid, pos[0], pos[1], sorted(exclude)]
            for qid, pos, exclude in sorted(queries)
        ],
        "results": [[qid, sorted(oids)] for qid, oids in sorted(results.items())],
        "stats": dict(stats),
    }


def _build_snapshot(monitor: "CRNNMonitor", cfg: MonitorConfig) -> dict[str, Any]:
    return build_snapshot_dict(
        cfg,
        dict(monitor.grid.positions),
        [(st.qid, st.pos, st.exclude) for st in monitor.qt],
        monitor.results(),
        monitor.stats.snapshot(),
    )


def parse_config(snap: dict[str, Any]) -> MonitorConfig:
    """Validate a checkpoint's header and rebuild its :class:`MonitorConfig`.

    Config keys the monitor no longer has are ignored: snapshots written
    while the circ store was a FUR-tree still carry that tree's fanout.
    """
    if not isinstance(snap, dict) or snap.get("format") != FORMAT:
        raise CheckpointError("not a CRNN checkpoint")
    if snap.get("version") != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {snap.get('version')!r}")
    try:
        c = snap["config"]
        return MonitorConfig(
            bounds=Rect(*(float(v) for v in c["bounds"])),
            grid_cells=int(c["grid_cells"]),
            variant=c["variant"],
            partial_insert_threshold=float(c["partial_insert_threshold"]),
            guard_policy=c.get("guard_policy", "strict"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def replay_into(monitor: Any, snap: dict[str, Any]) -> None:
    """Feed a checkpoint's objects and queries through ``monitor``'s
    normal registration path (works for any monitor-like facade exposing
    ``add_object`` / ``add_query`` / ``drain_events``)."""
    try:
        for oid, x, y in snap["objects"]:
            monitor.add_object(int(oid), Point(float(x), float(y)))
        for qid, x, y, exclude in snap["queries"]:
            monitor.add_query(
                int(qid), Point(float(x), float(y)), (int(e) for e in exclude)
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    monitor.drain_events()  # replay deltas are not live result changes


def verify_restore(monitor: Any, snap: dict[str, Any]) -> None:
    """Check a restored monitor's recomputed results against the
    recorded ones and run its ``validate()``; raises
    :class:`CheckpointError` on any divergence."""
    recorded = {
        int(qid): frozenset(int(o) for o in oids) for qid, oids in snap["results"]
    }
    recomputed = monitor.results()
    if recomputed != recorded:
        bad = sorted(
            qid
            for qid in set(recorded) | set(recomputed)
            if recorded.get(qid) != recomputed.get(qid)
        )
        logger.error("checkpoint restore verification failed for queries %s", bad)
        raise CheckpointError(
            f"post-restore results diverge from the checkpoint for queries {bad}"
        )
    try:
        monitor.validate()
    except AssertionError as exc:  # pragma: no cover - defensive
        logger.error("post-restore validate() failed: %s", exc)
        raise CheckpointError(f"post-restore validate() failed: {exc}") from exc


def restore(snap: dict[str, Any], verify: bool = True) -> "CRNNMonitor":
    """Build a fresh monitor from a checkpoint dict.

    With ``verify`` (the default) the recomputed post-restore results
    must exactly match the recorded ones and the cross-structure
    ``validate()`` must pass; any mismatch raises
    :class:`CheckpointError`.
    """
    from repro.core.monitor import CRNNMonitor

    config = parse_config(snap)
    monitor = CRNNMonitor(config)
    replay_into(monitor, snap)
    if verify:
        with monitor.obs.tracer.span("checkpoint.restore_verify", queries=len(monitor.qt)):
            verify_restore(monitor, snap)
    monitor.stats.checkpoints_restored += 1
    logger.info(
        "checkpoint restored: %d objects, %d queries (verify=%s)",
        len(monitor.grid), len(monitor.qt), verify,
    )
    return monitor


# ----------------------------------------------------------------------
# Exact mode (crash recovery)
# ----------------------------------------------------------------------
def snapshot_exact(monitor: "CRNNMonitor") -> dict[str, Any]:
    """A checkpoint that a restore can continue *bit-identically* from.

    Base snapshot plus the history-dependent extras (module docstring):
    the full circ record map, the per-query pie registration radii, the
    materialized cell set, whether the grid's CSR is fresh, and the full
    counter state.  The recorded counters include this call's
    own ``checkpoints_saved`` increment, so a restored monitor's
    counters equal those of a monitor that took the checkpoint and kept
    running.  Requires a FUR-store variant (the sharded engines always
    use one).
    """
    # Settle the grid's lazy per-cell sync first: a bulk move defers
    # materializing object-bearing cells until the next cell read, and
    # the recorded cell set (and ``cells_materialized``) must be the
    # settled one a restore can reproduce.
    monitor.grid.objects_in_cell(0, 0)
    snap = snapshot(monitor)
    snap["stats"] = monitor.stats.snapshot()  # re-read: includes the save
    snap["exact"] = {
        "circ": [
            [rec.qid, rec.sector, rec.cand, rec.d_q_cand, rec.nn, rec.radius]
            for (_q, _s), rec in sorted(monitor.circ._records.items())
        ],
        "queries": [
            [st.qid, list(st.pie_reg_radius)]
            for st in sorted(monitor.qt, key=lambda s: s.qid)
        ],
        "cells": sorted(monitor.grid._cells),
        "csr_fresh": monitor.grid.csr_fresh,
    }
    return snap


def restore_exact(snap: dict[str, Any], verify: bool = True) -> "CRNNMonitor":
    """Rebuild a monitor that continues exactly where the original was.

    Runs the canonical :func:`restore` (every derived structure rebuilt
    and verified by the normal code path, proving the ground truth
    consistent), then replaces the circ record map with the recorded
    one — the candidate, certificate, and radius of every non-RNN
    record are history-dependent under lazy-update, so the rebuilt
    records cannot be patched in place — re-points the query table's
    candidates at them, re-registers the pie cells at the recorded
    hysteretic radii, resynchronises the derived indexes: NN-Hash,
    the per-candidate index, and the circle table, and brings the
    materialized cells and the CSR's freshness to the recorded ones.
    No events are emitted: the recorded records must reproduce exactly
    the already-verified RNN results (RNN status is a pure function of
    the ground truth), and any divergence means corruption.  Counters
    are overwritten last with the recorded values.
    """
    from repro.core.circ_store import CircRecord

    monitor = restore(snap, verify=verify)
    exact = snap.get("exact")
    if not isinstance(exact, dict) or "circ" not in exact:
        raise CheckpointError("not an exact checkpoint (missing 'exact' section)")
    circ = monitor.circ
    if not hasattr(circ, "nn_hash"):
        raise CheckpointError("exact restore requires a FUR-store variant")
    old_cands = {rec.cand for rec in circ._records.values()}
    records: dict[tuple[int, int], CircRecord] = {}
    try:
        for qid, sector, cand, d_q_cand, nn, radius in exact["circ"]:
            rec = CircRecord(
                int(qid), int(sector), int(cand), float(d_q_cand),
                None if nn is None else int(nn), float(radius),
            )
            records[(rec.qid, rec.sector)] = rec
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed exact section: {exc}") from exc
    circ._records = records
    circ.nn_hash = {}
    circ.by_cand = {}
    for key, rec in records.items():
        circ.by_cand.setdefault(rec.cand, set()).add(key)
        if rec.nn is not None:
            circ.nn_hash.setdefault(rec.nn, set()).add(key)
    # Deterministic refresh order; drops the circles of candidates the
    # recorded map no longer references, puts the rest.
    for cand in sorted(old_cands | set(circ.by_cand)):
        circ._refresh_candidate(cand, None)
    # The query table mirrors the candidates and keeps the hysteretic
    # pie registration radius — both history-dependent.  Re-point the
    # candidates at the recorded records and re-register the pie cells
    # at the recorded radius (registration is a pure function of query
    # position, sector, and radius).
    import math as _math

    from repro.geometry.sector import NUM_SECTORS

    radii_of = {int(qid): radii for qid, radii in exact.get("queries", ())}
    for st in monitor.qt:
        radii = radii_of.get(st.qid)
        if radii is None or len(radii) != NUM_SECTORS:
            raise CheckpointError(
                f"exact section lacks pie state for query {st.qid}"
            )
        for sector in range(NUM_SECTORS):
            rec = records.get((st.qid, sector))
            st.cand[sector] = rec.cand if rec is not None else None
            st.d_cand[sector] = rec.d_q_cand if rec is not None else _math.inf
            reg = float(radii[sector])
            new_cells = (
                set(monitor.grid.cells_intersecting_pie(st.pos, sector, reg))
                if reg >= 0.0
                else set()
            )
            old_cells = st.pie_cells[sector]
            for cell in old_cells - new_cells:
                cell.remove_pie_query(st.qid, sector)
            for cell in new_cells - old_cells:
                cell.add_pie_query(st.qid, sector)
            st.pie_cells[sector] = new_cells
            st.pie_reg_radius[sector] = reg
    # Which grid cells are materialized is also history-dependent (an
    # old search or a since-vacated object leaves a live empty cell),
    # and it shows in ``cells_materialized`` and in future search shape.
    # Bring the live set to exactly the recorded one: the rebuild's set
    # may miss cells the original touched long ago, and its own
    # searches may have touched cells the original never did — the
    # latter are provably state-free by now (objects and pie
    # registrations already match the original), so dropping them is
    # safe, and anything else is corruption.
    grid = monitor.grid
    grid.objects_in_cell(0, 0)  # settle any lazy per-cell sync first
    want = {int(f) for f in exact.get("cells", ())}
    if any(f < 0 or f >= grid.n * grid.n for f in want):
        raise CheckpointError("exact section names a cell outside the grid")
    for flat in sorted(want - set(grid._cells)):
        grid._materialize(flat)
    for flat in sorted(set(grid._cells) - want):
        cell = grid._cells[flat]
        if cell.objects or cell.pie_queries or cell.circ_queries:
            raise CheckpointError(
                f"rebuilt cell {flat} carries state but is absent from the "
                f"checkpoint — corrupt exact section"
            )
        del grid._cells[flat]
    # The replay's single inserts leave the CSR stale; the original's
    # freshness decides whether its next single-object op runs the
    # vectorized kernels or the scalar twins, which shows in the
    # physical counters.  Rebuild it before they are overwritten.
    if exact.get("csr_fresh", False):
        grid.ensure_csr()
    recorded = {
        int(qid): frozenset(int(o) for o in oids) for qid, oids in snap["results"]
    }
    for qid in {q for (q, _s) in records} | set(recorded):
        if circ.rnn_set(qid) != recorded.get(qid, frozenset()):
            raise CheckpointError(
                f"exact records change the RNN set of query {qid} — "
                f"corrupt checkpoint"
            )
    for name, value in snap["stats"].items():
        if hasattr(monitor.stats, name):
            setattr(monitor.stats, name, int(value))
    if verify:
        try:
            circ.validate()
        except AssertionError as exc:
            raise CheckpointError(f"exact records broke circ invariants: {exc}") from exc
    return monitor


def to_json(snap: dict[str, Any], indent: int | None = None) -> str:
    """The checkpoint as a JSON document."""
    return json.dumps(snap, indent=indent, sort_keys=True)


def from_json(text: str) -> dict[str, Any]:
    """Parse a checkpoint JSON document back into the dict form."""
    try:
        snap = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"invalid checkpoint JSON: {exc}") from exc
    if not isinstance(snap, dict):
        raise CheckpointError("checkpoint JSON must be an object")
    return snap
