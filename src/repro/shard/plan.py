"""Stripe partitioning of the uniform grid (the sharding plan).

The grid's ``n x n`` cells are split into ``K`` contiguous *column
stripes*; each stripe is one shard's territory.  A query is owned by
the shard whose stripe contains its query point — computed with exactly
the grid's own truncate-then-clamp cell mapping, so a point sitting
precisely on a stripe boundary is owned by the same shard whose cells
it would register in.  Objects are *not* partitioned: every shard holds
a full replica of the position plane, because a constrained-NN
re-search triggered by a single update may read objects arbitrarily
far away (DESIGN §9).
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["StripePlan"]


class StripePlan:
    """Deterministic assignment of grid columns (and queries) to shards.

    Parameters
    ----------
    bounds:
        The monitored space (same rect the grid index uses).
    grid_cells:
        Cells per axis of the uniform grid (``n``).
    shards:
        Number of column stripes ``K``; must satisfy ``1 <= K <= n``.

    Notes
    -----
    Shard ``k`` owns grid columns ``[floor(k*n/K), floor((k+1)*n/K))`` —
    the balanced contiguous split, fixed for the life of the monitor
    (DESIGN §13 records why it is not re-cut under load).  Ownership of
    a point follows the column of the cell the grid would place it in,
    so stripe boundaries and cell boundaries coincide and a boundary
    point belongs to the stripe on its right (grid truncation), clamped
    at the space edge.
    """

    def __init__(self, bounds: Rect, grid_cells: int, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if shards > grid_cells:
            raise ValueError(
                f"cannot cut {grid_cells} grid columns into {shards} stripes"
            )
        self.bounds = bounds
        self.n = grid_cells
        self.shards = shards
        self._cell_w = bounds.width / grid_cells
        #: First grid column of each stripe, plus a terminal ``n``:
        #: stripe ``k`` covers columns ``[starts[k], starts[k+1])``.
        self.starts: tuple[int, ...] = tuple(
            (k * grid_cells) // shards for k in range(shards)
        ) + (grid_cells,)
        #: Column -> owning shard, precomputed for O(1) point lookup.
        owner = []
        for k in range(shards):
            owner.extend([k] * (self.starts[k + 1] - self.starts[k]))
        self._col_owner: tuple[int, ...] = tuple(owner)

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_args(self) -> tuple:
        """Pickle-friendly wire form (see :meth:`from_args`)."""
        return (tuple(self.bounds), self.n, self.shards)

    @classmethod
    def from_args(cls, args: tuple) -> "StripePlan":
        """Rebuild from :meth:`to_args` output."""
        return cls(Rect(*args[0]), args[1], args[2])

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def column_of(self, x: float) -> int:
        """The grid column of coordinate ``x`` (grid truncation + clamp)."""
        cx = int((x - self.bounds.xmin) / self._cell_w)
        if cx < 0:
            return 0
        if cx >= self.n:
            return self.n - 1
        return cx

    def owner_of(self, p: Point) -> int:
        """The shard that owns a query located at ``p``."""
        return self._col_owner[self.column_of(p[0])]

    def columns_of(self, shard: int) -> range:
        """The grid columns stripe ``shard`` covers."""
        return range(self.starts[shard], self.starts[shard + 1])

    def stripe_rect(self, shard: int) -> Rect:
        """The sub-rectangle of the space stripe ``shard`` covers."""
        b = self.bounds
        lo = b.xmin + self.starts[shard] * self._cell_w
        hi = (
            b.xmax
            if shard == self.shards - 1
            else b.xmin + self.starts[shard + 1] * self._cell_w
        )
        return Rect(lo, b.ymin, hi, b.ymax)

    def boundaries(self) -> list[float]:
        """The interior stripe-boundary x coordinates (K-1 of them)."""
        b = self.bounds
        return [b.xmin + self.starts[k] * self._cell_w for k in range(1, self.shards)]

    # ------------------------------------------------------------------
    # Halo accounting
    # ------------------------------------------------------------------
    def halo_counts(
        self, moves: list[tuple[int, Optional[Point], Optional[Point]]]
    ) -> dict[int, int]:
        """Per-shard count of boundary-crossing moves in a batch.

        A crossing move is charged to both endpoint shards (it enters
        each one's halo); the dict only carries shards with nonzero
        counts.
        """
        counts: dict[int, int] = {}
        for _oid, old_pos, new_pos in moves:
            if old_pos is None or new_pos is None:
                continue
            a = self.owner_of(old_pos)
            b = self.owner_of(new_pos)
            if a != b:
                counts[a] = counts.get(a, 0) + 1
                counts[b] = counts.get(b, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ",".join(
            f"[{self.starts[k]},{self.starts[k + 1]})" for k in range(self.shards)
        )
        return f"StripePlan(n={self.n}, K={self.shards}, columns={cols})"
