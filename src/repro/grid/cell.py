"""A single cell of the uniform grid, with per-query book-keeping.

Besides the objects currently inside it, a cell carries the classic
book-keeping of continuous-query monitors:

* ``pie_queries`` — for each query whose pie-region(s) intersect the
  cell, a 6-bit mask of which sectors' pies do.  An object update landing
  in (or leaving) this cell must be checked against exactly these
  queries.
* ``circ_queries`` — used only by the *Uniform* baseline variant, which
  book-keeps circ-regions in the grid too: the set of ``(query_id,
  sector)`` pairs whose circ-region intersects the cell.
"""

from __future__ import annotations

from repro.geometry.rect import Rect


class Cell:
    """One grid cell: spatial extent, resident objects, query book-keeping."""

    __slots__ = (
        "cx",
        "cy",
        "rect",
        "objects",
        "pie_queries",
        "circ_queries",
        "flat",
        "pie_flag_hook",
    )

    def __init__(self, cx: int, cy: int, rect: Rect):
        self.cx = cx
        self.cy = cy
        self.rect = rect
        self.objects: set[int] = set()
        self.pie_queries: dict[int, int] = {}
        self.circ_queries: set[tuple[int, int]] = set()
        #: Row-major flat index in the owning grid, and the grid's
        #: callback fired when ``pie_queries`` flips between empty and
        #: non-empty.  Both stay ``None`` for cells built standalone
        #: (tests); the grid sets them when it materializes the cell.
        self.flat: int | None = None
        self.pie_flag_hook = None

    def add_pie_query(self, query_id: int, sector: int) -> None:
        """Register sector ``sector`` of ``query_id`` as intersecting this cell."""
        was_empty = not self.pie_queries
        self.pie_queries[query_id] = self.pie_queries.get(query_id, 0) | (1 << sector)
        if was_empty and self.pie_flag_hook is not None:
            self.pie_flag_hook(self.flat, True)

    def remove_pie_query(self, query_id: int, sector: int) -> None:
        """Drop sector ``sector`` of ``query_id`` from this cell's book-keeping."""
        mask = self.pie_queries.get(query_id)
        if mask is None:
            return
        mask &= ~(1 << sector)
        if mask:
            self.pie_queries[query_id] = mask
        else:
            del self.pie_queries[query_id]
            if not self.pie_queries and self.pie_flag_hook is not None:
                self.pie_flag_hook(self.flat, False)

    def clear_pie_query(self, query_id: int) -> None:
        """Drop every sector of ``query_id`` (used when a query is removed)."""
        if self.pie_queries.pop(query_id, None) is not None:
            if not self.pie_queries and self.pie_flag_hook is not None:
                self.pie_flag_hook(self.flat, False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cell({self.cx},{self.cy}, objs={len(self.objects)}, "
            f"pies={len(self.pie_queries)}, circs={len(self.circ_queries)})"
        )
