"""Monitor configuration and the paper's three method variants."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.geometry.rect import Rect
from repro.obs.config import ObsConfig

#: Data space used throughout the paper's experiments (network-generator
#: coordinates are scaled into it by the workload code).
DEFAULT_BOUNDS = Rect(0.0, 0.0, 10_000.0, 10_000.0)

#: Variant names (Section 6.3 of the paper).
UNIFORM = "uniform"
LU_ONLY = "lu-only"
LU_PI = "lu+pi"

_VALID_VARIANTS = (UNIFORM, LU_ONLY, LU_PI)

#: Ingestion-guard policies (repro.robustness.guard): what the monitor
#: does with a malformed update at the public API boundary.
GUARD_STRICT = "strict"  # raise IngestionError (before any mutation)
GUARD_CLAMP = "clamp"  # clamp out-of-bounds coordinates into the data space
GUARD_DROP = "drop"  # silently discard the offending update (counted)

GUARD_POLICIES = (GUARD_STRICT, GUARD_CLAMP, GUARD_DROP)


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning knobs of a :class:`~repro.core.monitor.CRNNMonitor`.

    ``variant`` selects how circ-regions are stored and maintained:

    * ``"uniform"`` — book-keep circ-regions in grid cells, keep each
      region tight with an eager NN search on every change (the paper's
      straw-man);
    * ``"lu-only"`` — store circ-regions in one global circle table
      (the paper's FUR-tree, kept as a persistent array table: DESIGN §2
      "Substitutions") plus NN-Hash, apply only the lazy-update
      optimisation;
    * ``"lu+pi"`` — the paper's complete method: lazy-update plus
      partial-insert with the given threshold.
    """

    bounds: Rect = field(default=DEFAULT_BOUNDS)
    grid_cells: int = 128
    variant: str = LU_PI
    partial_insert_threshold: float = 0.8
    #: How the ingestion guard treats malformed updates (non-finite or
    #: out-of-bounds coordinates, id conflicts, deletes of unknown ids):
    #: ``"strict"`` raises before any state mutates, ``"clamp"`` pulls
    #: out-of-bounds coordinates to the data-space border and drops what
    #: cannot be repaired, ``"drop"`` discards offending updates.  Every
    #: violation is counted in :class:`~repro.core.stats.StatCounters`.
    guard_policy: str = GUARD_STRICT
    #: Observability layer (:mod:`repro.obs`): structured tracing,
    #: metrics registry + exporters, per-query health diagnostics.
    #: ``None`` (the default) disables the layer entirely — the monitor
    #: keeps the null tracer and records nothing; results and events
    #: never depend on this field.
    observability: Optional[ObsConfig] = None

    def __post_init__(self) -> None:
        if self.variant not in _VALID_VARIANTS:
            raise ValueError(f"variant must be one of {_VALID_VARIANTS}, got {self.variant!r}")
        if not (0.0 < self.partial_insert_threshold < 1.0):
            raise ValueError("partial_insert_threshold must be in (0, 1)")
        if self.grid_cells < 1:
            raise ValueError("grid_cells must be >= 1")
        if self.guard_policy not in GUARD_POLICIES:
            raise ValueError(
                f"guard_policy must be one of {GUARD_POLICIES}, got {self.guard_policy!r}"
            )

    @property
    def eager_nn(self) -> bool:
        """Uniform keeps circ-regions tight with eager NN searches."""
        return self.variant == UNIFORM

    @property
    def uses_fur_store(self) -> bool:
        """Whether the variant keeps circ-regions in the global circle table
        (the paper's FUR-tree) with an NN-Hash, i.e. uses :class:`FurCircStore`."""
        return self.variant in (LU_ONLY, LU_PI)

    @property
    def effective_threshold(self) -> float:
        """Partial-insert threshold; 0 disables it (every circle in the tree)."""
        return self.partial_insert_threshold if self.variant == LU_PI else 0.0

    @classmethod
    def uniform(cls, **kwargs) -> "MonitorConfig":
        """Config for the uniform-grid circ store (no circle table)."""
        return cls(variant=UNIFORM, **kwargs)

    @classmethod
    def lu_only(cls, **kwargs) -> "MonitorConfig":
        """Config for the circle-table store with lazy updates only."""
        return cls(variant=LU_ONLY, **kwargs)

    @classmethod
    def lu_pi(cls, **kwargs) -> "MonitorConfig":
        """Config for the circle-table store with lazy updates + partial insert."""
        return cls(variant=LU_PI, **kwargs)
