"""Rdnn-tree: pre-computed NN distances for static RNN (Yang & Lin, ICDE'01).

The earliest RNN methods pre-compute, for every object ``o``, the
distance ``dnn(o)`` to its nearest neighbor.  Korn & Muthukrishnan
(SIGMOD'00) stored the resulting NN-circles in a separate R-tree; Yang &
Lin's *Rdnn-tree* folds the circles into the object R-tree itself by
augmenting each leaf entry with ``dnn`` and each index entry with the
subtree maximum — exactly the radius machinery our FUR-tree already has.

``o`` is an RNN of ``q`` iff ``dist(o, q) <= dnn(o)`` (no other object is
*strictly* nearer to ``o`` than ``q``), i.e. iff ``q`` falls inside
``o``'s closed NN-circle — a containment query pruned by the aggregated
radii.

The paper dismisses this family for *continuous* monitoring because the
``dnn`` values are expensive to keep correct under motion; this module
implements the maintenance anyway (insert/delete/move with exact ``dnn``
repair) both as a faithful piece of related work and as a dynamic
all-nearest-neighbor index in its own right.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.core.stats import StatCounters
from repro.geometry.point import Point, dist
from repro.rtree.furtree import FURTree
from repro.rtree.node import LeafEntry


class RdnnIndex:
    """Dynamic Rdnn-tree over a set of points.

    Maintains ``dnn`` (distance to nearest neighbor) for every object
    under insertions, deletions, and moves, and answers static RNN
    queries by circle containment.
    """

    def __init__(self, max_entries: int = 20, stats: StatCounters | None = None):
        self.stats = stats if stats is not None else StatCounters()
        self.tree = FURTree(max_entries=max_entries, stats=self.stats)
        self.positions: dict[int, Point] = {}
        self.dnn: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, oid: int) -> bool:
        return oid in self.positions

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, oid: int, pos: Point) -> None:
        """Insert a new object, repairing every affected ``dnn``."""
        if oid in self.positions:
            raise KeyError(f"object {oid} already present; use move()")
        # The newcomer may become the new NN of existing objects: all
        # objects whose (closed) NN-circle contains the new position.
        for other in self.tree.containment_search(pos, closed=True):
            d = dist(pos, other.pos)
            if d < self.dnn[other.oid]:
                self._set_dnn(other.oid, d)
        own = self._nn_dist(pos, exclude={oid})
        self.positions[oid] = pos
        self.dnn[oid] = own
        self.tree.insert(LeafEntry(oid, pos, radius=own))

    def delete(self, oid: int) -> None:
        """Remove an object; objects that had it as NN get fresh ``dnn``."""
        pos = self.positions.pop(oid)
        del self.dnn[oid]
        self.tree.delete_by_id(oid)
        # Anyone whose NN-circle touched the departed object may have
        # lost its NN: recompute their dnn exactly.
        for other in self.tree.containment_search(pos, closed=True):
            fresh = self._nn_dist(other.pos, exclude={other.oid})
            if fresh != self.dnn[other.oid]:
                self._set_dnn(other.oid, fresh)

    def move(self, oid: int, new_pos: Point) -> None:
        """Relocate an object (delete + insert semantics, one pass)."""
        old_pos = self.positions[oid]
        if old_pos == new_pos:
            return
        self.positions[oid] = new_pos
        affected: set[int] = set()
        for other in self.tree.containment_search(old_pos, closed=True):
            if other.oid != oid:
                affected.add(other.oid)
        self.tree.update(oid, new_pos)
        for other in self.tree.containment_search(new_pos, closed=True):
            if other.oid != oid:
                affected.add(other.oid)
        for other_id in affected:
            fresh = self._nn_dist(self.positions[other_id], exclude={other_id})
            if fresh != self.dnn[other_id]:
                self._set_dnn(other_id, fresh)
        self._set_dnn(oid, self._nn_dist(new_pos, exclude={oid}))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rnn(self, q: Point, exclude: Iterable[int] = ()) -> set[int]:
        """The monochromatic reverse nearest neighbors of ``q``."""
        excluded = frozenset(exclude)
        return {
            e.oid
            for e in self.tree.containment_search(q, closed=True)
            if e.oid not in excluded
        }

    def nn_distance(self, oid: int) -> float:
        """The maintained distance from ``oid`` to its nearest neighbor."""
        return self.dnn[oid]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _nn_dist(self, p: Point, exclude: set[int]) -> float:
        found = self.tree.nn_search(p, k=1, exclude=exclude)
        return found[0][0] if found else math.inf

    def _set_dnn(self, oid: int, value: float) -> None:
        self.dnn[oid] = value
        # math.inf cannot live in the radius aggregates (a single object
        # has no NN); store a radius covering the whole space instead.
        self.tree.update_radius(oid, value if math.isfinite(value) else 1e18)

    # ------------------------------------------------------------------
    # Validation (tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural invariants of the RdNN index; raises ``AssertionError``."""
        self.tree.validate()
        for oid, pos in self.positions.items():
            true_dnn = min(
                (dist(pos, p) for other, p in self.positions.items() if other != oid),
                default=math.inf,
            )
            assert self.dnn[oid] == true_dnn, (
                f"stale dnn for {oid}: {self.dnn[oid]} != {true_dnn}"
            )
