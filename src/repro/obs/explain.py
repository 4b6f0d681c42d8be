"""Per-query health diagnostics: ``monitor.explain(qid)``.

Answers the operator question "why is query 17 expensive?" with a
structured report assembled from the live monitoring state (always
available) plus the per-query health counters (when the observability
diagnostics are enabled): the candidate set, each circ radius against
its candidate-query distance (the *slack* lazy-update can spend before
an NN search becomes unavoidable), pie-region cell registrations, the
lazy-update deferral/recompute balance, staleness, and the cause of the
last recomputation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.geometry.sector import NUM_SECTORS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import CRNNMonitor

__all__ = ["SectorDiagnostics", "QueryDiagnostics", "explain_query"]


@dataclass(frozen=True)
class SectorDiagnostics:
    """One 60° partition of a query's monitoring region."""

    sector: int
    #: The constrained NN of the sector (the RNN candidate), if any.
    candidate: Optional[int]
    #: Candidate-query distance == pie-region radius (inf: empty sector).
    d_cand: float
    #: Radius the pie-region cell registration currently covers
    #: (>= d_cand; hysteresis keeps it from shrinking eagerly).
    pie_reg_radius: float
    #: Grid cells the pie-region is registered in (the filter-step cost
    #: every object move in those cells pays for this sector).
    pie_cell_count: int
    #: Circ-region radius (== d_cand while the candidate is a true RNN).
    circ_radius: Optional[float]
    #: Certificate object proving the candidate a false positive, if any.
    certificate: Optional[int]
    #: Whether the candidate currently counts as an RNN of the query.
    is_rnn: Optional[bool]
    #: Whether the circ is in the circle table, the paper's FUR-tree
    #: (False: parked in the partial-insert side hash, invisible to
    #: containment queries).
    in_fur: Optional[bool]
    #: ``d_cand - circ_radius``: how much certificate drift lazy-update
    #: can still absorb before the next forced NN search.
    slack: Optional[float]


@dataclass(frozen=True)
class QueryDiagnostics:
    """Structured health report of one registered query."""

    qid: int
    pos: tuple[float, float]
    results: tuple[int, ...]
    exclude: tuple[int, ...]
    sectors: tuple[SectorDiagnostics, ...]
    #: Total registered pie cells across sectors (per-move filter cost).
    pie_cells_total: int
    #: Sectors whose pie-region is bounded (a candidate exists).
    bounded_sectors: int
    #: Sectors whose candidate is currently a true RNN.
    rnn_sectors: int
    # ---- health counters (None when diagnostics are disabled) --------
    lazy_deferrals: Optional[int] = None
    certificate_recomputes: Optional[int] = None
    containment_shrinks: Optional[int] = None
    recomputations: Optional[int] = None
    result_gains: Optional[int] = None
    result_losses: Optional[int] = None
    recompute_causes: dict[str, int] = field(default_factory=dict)
    last_recompute_cause: Optional[str] = None
    #: Batches since the last forced recompute / result change / since
    #: registration (None: never happened or diagnostics disabled).
    staleness_batches: Optional[int] = None
    batches_since_result_change: Optional[int] = None
    #: False when built without the health tracker (structural info only).
    diagnostics_enabled: bool = False
    #: Owning shard under a sharded deployment (stamped by the
    #: coordinator's ``explain()``; None from a single monitor).
    shard: Optional[int] = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (inf distances become the string ``"inf"``)."""
        out = asdict(self)
        for sector in out["sectors"]:
            for key in ("d_cand", "pie_reg_radius"):
                if math.isinf(sector[key]):
                    sector[key] = "inf"
        return out

    @property
    def expensive_sectors(self) -> tuple[int, ...]:
        """Sectors ranked by registered pie-cell count, costliest first."""
        return tuple(
            s.sector
            for s in sorted(self.sectors, key=lambda s: -s.pie_cell_count)
            if s.pie_cell_count
        )


def explain_query(monitor: "CRNNMonitor", qid: int) -> QueryDiagnostics:
    """Build the :class:`QueryDiagnostics` of ``qid`` from live state.

    Raises ``KeyError`` for an unregistered query id.
    """
    st = monitor.qt.get(qid)
    sectors: list[SectorDiagnostics] = []
    rnn_sectors = 0
    for sector in range(NUM_SECTORS):
        rec = monitor.circ.record(qid, sector)
        is_rnn = rec.is_rnn if rec is not None else None
        if is_rnn:
            rnn_sectors += 1
        sectors.append(
            SectorDiagnostics(
                sector=sector,
                candidate=st.cand[sector],
                d_cand=st.d_cand[sector],
                pie_reg_radius=st.pie_reg_radius[sector],
                pie_cell_count=len(st.pie_cells[sector]),
                circ_radius=rec.radius if rec is not None else None,
                certificate=rec.nn if rec is not None else None,
                is_rnn=is_rnn,
                in_fur=getattr(rec, "in_fur", None) if rec is not None else None,
                slack=(rec.d_q_cand - rec.radius) if rec is not None else None,
            )
        )

    health = monitor.obs.health.get(qid) if monitor.obs.health is not None else None
    extra: dict[str, Any] = {}
    if health is not None:
        now = monitor.obs.health.batch
        last = health.last_recompute_batch
        last_change = health.last_result_change_batch
        extra = {
            "lazy_deferrals": health.lazy_deferrals,
            "certificate_recomputes": health.certificate_recomputes,
            "containment_shrinks": health.containment_shrinks,
            "recomputations": health.recomputations,
            "result_gains": health.result_gains,
            "result_losses": health.result_losses,
            "recompute_causes": dict(health.recompute_causes),
            "last_recompute_cause": health.last_recompute_cause,
            "staleness_batches": (
                now - last if last is not None else now - health.registered_batch
            ),
            "batches_since_result_change": (
                now - last_change if last_change is not None else None
            ),
            "diagnostics_enabled": True,
        }

    return QueryDiagnostics(
        qid=qid,
        pos=(st.pos[0], st.pos[1]),
        results=tuple(sorted(monitor.rnn(qid))),
        exclude=tuple(sorted(st.exclude)),
        sectors=tuple(sectors),
        pie_cells_total=sum(s.pie_cell_count for s in sectors),
        bounded_sectors=sum(1 for s in sectors if s.candidate is not None),
        rnn_sectors=rnn_sectors,
        **extra,
    )
