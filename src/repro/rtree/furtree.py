"""FUR-tree: an R-tree supporting frequent updates bottom-up.

Lee et al. (VLDB 2003) observe that location updates exhibit strong
locality, so most updates can be handled without a top-down
delete-and-reinsert.  The FUR-tree adds to the R-tree:

* a **secondary hash table** from object id to its leaf node, giving
  direct access to the entry being updated; and
* **parent pointers** (the paper's direct access table) so MBR and
  max-radius adjustments can be propagated bottom-up.

On update, if the new position stays inside the leaf MBR the entry is
modified in place; if it stays inside the parent MBR the entry either
moves to the best sibling leaf or the leaf MBR is enlarged; otherwise the
standard top-down reinsertion applies.

The paper stores all candidate circ-regions in one global in-memory
FUR-tree (Section 5.2); candidates being constrained NNs of their
queries, their updates are highly local, which is exactly the workload
this structure is built for.  This library's monitor keeps those
circles in a persistent array table instead (DESIGN §2
"Substitutions"); the FUR-tree indexes the TPL-FUR baseline's objects,
the Rdnn-tree and the bichromatic monitor's assignment circles.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.geometry.point import Point
from repro.rtree.node import LeafEntry, Node
from repro.rtree.rtree import RTree


class FURTree(RTree):
    """R-tree with hash-based direct leaf access and bottom-up updates."""

    def __init__(self, max_entries: int = 20, min_fill: float = 0.4, stats=None):
        super().__init__(max_entries=max_entries, min_fill=min_fill, stats=stats)
        self.leaf_of: dict[int, Node] = {}
        self.entry_of: dict[int, LeafEntry] = {}

    # -- hash maintenance hooks ----------------------------------------
    def _on_entry_placed(self, entry: LeafEntry, leaf: Node) -> None:
        self.leaf_of[entry.oid] = leaf
        self.entry_of[entry.oid] = entry

    def _on_entry_removed(self, entry: LeafEntry) -> None:
        self.leaf_of.pop(entry.oid, None)
        self.entry_of.pop(entry.oid, None)

    # -- direct access --------------------------------------------------
    def __contains__(self, oid: int) -> bool:
        return oid in self.leaf_of

    def get_entry(self, oid: int) -> LeafEntry:
        """The live entry for ``oid`` (KeyError when absent)."""
        return self.entry_of[oid]

    def delete_by_id(self, oid: int) -> LeafEntry:
        """Remove ``oid`` via the hash table (no tree descent needed)."""
        leaf = self.leaf_of[oid]
        return self._remove_from_leaf(leaf, oid)

    # -- the frequent-update path ----------------------------------------
    def update(self, oid: int, new_pos: Point, new_radius: Optional[float] = None) -> None:
        """Move ``oid`` to ``new_pos`` using the bottom-up strategy.

        ``new_radius`` (when given) also replaces the augmented radius.
        Falls back to delete + insert when the update is non-local.
        """
        leaf = self.leaf_of.get(oid)
        if leaf is None:
            raise KeyError(f"object {oid} not in FUR-tree")
        entry = self.get_entry(oid)
        radius = entry.radius if new_radius is None else new_radius

        assert leaf.mbr is not None
        if leaf.mbr.contains_point(new_pos):
            # Fastest path: modify in place, tighten/propagate aggregates.
            self.stats.fur_bottom_up_updates += 1
            entry.pos = new_pos
            entry.radius = radius
            leaf.refresh_upward()
            return

        parent = leaf.parent
        if parent is not None and parent.mbr is not None and parent.mbr.contains_point(new_pos):
            # Local move within the parent: place the entry in the sibling
            # leaf needing the least enlargement (possibly the same leaf,
            # enlarging its MBR).
            self.stats.fur_bottom_up_updates += 1
            best_leaf = None
            best_key: tuple[float, float] | None = None
            for sibling in parent.children:
                if not sibling.is_leaf or sibling.mbr is None:
                    continue
                if len(sibling.entries) >= self.max_entries and sibling is not leaf:
                    continue
                enlargement = sibling.mbr.extended_to(new_pos).area - sibling.mbr.area
                key = (enlargement, sibling.mbr.area)
                if best_key is None or key < best_key:
                    best_key = key
                    best_leaf = sibling
            if best_leaf is None:
                best_leaf = leaf
            entry.pos = new_pos
            entry.radius = radius
            if best_leaf is leaf:
                leaf.refresh_upward()
                return
            leaf.entries.remove(entry)
            best_leaf.entries.append(entry)
            self.leaf_of[oid] = best_leaf
            if len(leaf.entries) < self.min_entries:
                # Moving out caused underflow: let condense handle it
                # after refreshing the receiving leaf.
                best_leaf.refresh_upward()
                self._condense(leaf)
            else:
                leaf.refresh_upward()
                best_leaf.refresh_upward()
            return

        # Non-local move: classic top-down delete + reinsert.
        self.stats.fur_topdown_reinserts += 1
        removed = self.delete_by_id(oid)
        removed.pos = new_pos
        removed.radius = radius
        self.insert(removed)

    def update_radius(self, oid: int, new_radius: float) -> None:
        """Change only the augmented radius of ``oid`` (position unchanged).

        This is the cheap path exercised constantly by the lazy-update
        optimisation: a circ-region shrinks or grows without its
        candidate moving, so only the max-radius aggregates need
        propagation.
        """
        leaf = self.leaf_of[oid]
        entry = self.entry_of[oid]
        if entry.radius == new_radius:
            return
        old_radius = entry.radius
        entry.radius = new_radius
        if new_radius > old_radius:
            # Fast upward max propagation without full refresh.
            node: Optional[Node] = leaf
            while node is not None and node.max_radius < new_radius:
                node.max_radius = new_radius
                node = node.parent
        else:
            # Shrink: MBRs are untouched, only the radius aggregate may
            # tighten — and only while the shrunk entry was the maximum.
            node = leaf
            while node is not None and node.max_radius == old_radius:
                if node.is_leaf:
                    fresh = max(e.radius for e in node.entries)
                else:
                    fresh = max(c.max_radius for c in node.children)
                if fresh == node.max_radius:
                    return
                node.max_radius = fresh
                node = node.parent

    def validate(self) -> None:
        """R-tree invariants plus hash-table consistency."""
        super().validate()
        seen: set[int] = set()
        for entry in self.entries():
            assert entry.oid not in seen, f"duplicate oid {entry.oid}"
            seen.add(entry.oid)
            leaf = self.leaf_of.get(entry.oid)
            assert leaf is not None, f"oid {entry.oid} missing from hash"
            assert any(e.oid == entry.oid for e in leaf.entries), "hash points to wrong leaf"
        assert seen == set(self.leaf_of), "hash table has stale ids"


def bulk_load(
    points: dict[int, Point], max_entries: int = 20, stats=None, radius: float = 0.0
) -> FURTree:
    """Build a FUR-tree from a dict of positions via STR-style tiling.

    Sort-Tile-Recursive packing produces well-clustered leaves, which is
    how the TPL-FUR baseline constructs its object index before the
    per-timestamp monitoring loop starts.
    """
    tree = FURTree(max_entries=max_entries, stats=stats)
    items = sorted(points.items(), key=lambda kv: kv[1][0])
    if not items:
        return tree
    n = len(items)
    slice_count = max(1, math.ceil(math.sqrt(n / max_entries)))
    slice_size = math.ceil(n / slice_count)
    ordered: list[tuple[int, Point]] = []
    for s in range(0, n, slice_size):
        chunk = items[s : s + slice_size]
        chunk.sort(key=lambda kv: kv[1][1])
        ordered.extend(chunk)
    for oid, pos in ordered:
        tree.insert(LeafEntry(oid, pos, radius=radius))
    return tree
