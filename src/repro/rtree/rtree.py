"""A from-scratch in-memory R-tree (quadratic split) over points.

This is the substrate for two pieces of the paper:

* the **FUR-tree** (:mod:`repro.rtree.furtree`), the paper's circ-region
  index, which extends it with a secondary hash table and bottom-up
  updates; and
* the **TPL baseline** (:mod:`repro.rnn.tpl`), which runs the static RNN
  algorithm of Tao et al. over an (FUR-)tree of objects.

Entries carry an Rdnn-style ``radius``; every node aggregates the max
radius of its subtree, enabling the circle-containment search used by
``updateCirc`` Step 2.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, Optional

from repro.core.stats import StatCounters
from repro.geometry.point import Point, dist
from repro.geometry.rect import Rect
from repro.rtree.node import LeafEntry, Node


class RTree:
    """In-memory R-tree over point entries with quadratic node splits."""

    def __init__(
        self,
        max_entries: int = 20,
        min_fill: float = 0.4,
        stats: StatCounters | None = None,
    ):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, int(math.ceil(max_entries * min_fill)))
        self.stats = stats if stats is not None else StatCounters()
        self.root = Node(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, entry: LeafEntry) -> None:
        """Insert a leaf entry (standard top-down R-tree insertion)."""
        leaf = self._choose_leaf(self.root, entry.pos)
        self._add_to_leaf(leaf, entry)
        self.size += 1

    def _add_to_leaf(self, leaf: Node, entry: LeafEntry) -> None:
        leaf.entries.append(entry)
        self._on_entry_placed(entry, leaf)
        if len(leaf.entries) > self.max_entries:
            self._split(leaf)
        else:
            leaf.refresh_upward()

    def _choose_leaf(self, node: Node, pos: Point) -> Node:
        while not node.is_leaf:
            self.stats.fur_node_accesses += 1
            best_child = None
            best_key: tuple[float, float] | None = None
            for child in node.children:
                mbr = child.mbr
                assert mbr is not None
                enlargement = mbr.extended_to(pos).area - mbr.area
                key = (enlargement, mbr.area)
                if best_key is None or key < best_key:
                    best_key = key
                    best_child = child
            assert best_child is not None
            node = best_child
        return node

    def _on_entry_placed(self, entry: LeafEntry, leaf: Node) -> None:
        """Hook for subclasses (FUR-tree hash maintenance)."""

    def _on_entry_removed(self, entry: LeafEntry) -> None:
        """Hook for subclasses (FUR-tree hash maintenance)."""

    # ------------------------------------------------------------------
    # Node splitting (quadratic)
    # ------------------------------------------------------------------
    def _split(self, node: Node) -> None:
        items: list[object] = list(node.entries) if node.is_leaf else list(node.children)
        mbrs = [it.mbr for it in items]  # type: ignore[union-attr]
        seed_a, seed_b = self._pick_seeds(mbrs)
        group_a: list[object] = [items[seed_a]]
        group_b: list[object] = [items[seed_b]]
        mbr_a: Rect = mbrs[seed_a]
        mbr_b: Rect = mbrs[seed_b]
        remaining = [items[i] for i in range(len(items)) if i not in (seed_a, seed_b)]
        rem_mbrs = [mbrs[i] for i in range(len(mbrs)) if i not in (seed_a, seed_b)]

        while remaining:
            # Force assignment when one group must absorb the rest to
            # reach the minimum fill.
            need = self.min_entries
            if len(group_a) + len(remaining) == need:
                group_a.extend(remaining)
                mbr_a = Rect.union_of([mbr_a, *rem_mbrs])
                break
            if len(group_b) + len(remaining) == need:
                group_b.extend(remaining)
                mbr_b = Rect.union_of([mbr_b, *rem_mbrs])
                break
            # Pick-next: the item with the greatest preference difference.
            best_i = 0
            best_diff = -1.0
            best_d1 = 0.0
            best_d2 = 0.0
            for i, mbr in enumerate(rem_mbrs):
                d1 = mbr_a.enlargement(mbr)
                d2 = mbr_b.enlargement(mbr)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_diff = diff
                    best_i = i
                    best_d1 = d1
                    best_d2 = d2
            item = remaining.pop(best_i)
            mbr = rem_mbrs.pop(best_i)
            if best_d1 < best_d2 or (best_d1 == best_d2 and len(group_a) <= len(group_b)):
                group_a.append(item)
                mbr_a = mbr_a.union(mbr)
            else:
                group_b.append(item)
                mbr_b = mbr_b.union(mbr)

        sibling = Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = group_a  # type: ignore[assignment]
            sibling.entries = group_b  # type: ignore[assignment]
            for entry in sibling.entries:
                self._on_entry_placed(entry, sibling)
        else:
            node.children = group_a  # type: ignore[assignment]
            sibling.children = group_b  # type: ignore[assignment]
            for child in sibling.children:
                child.parent = sibling
            for child in node.children:
                child.parent = node
        node.refresh()
        sibling.refresh()

        parent = node.parent
        if parent is None:
            new_root = Node(is_leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.refresh()
            self.root = new_root
        else:
            parent.children.append(sibling)
            sibling.parent = parent
            if len(parent.children) > self.max_entries:
                self._split(parent)
            else:
                parent.refresh_upward()

    @staticmethod
    def _pick_seeds(mbrs: list[Rect]) -> tuple[int, int]:
        """Quadratic seed pick: the pair wasting the most dead area."""
        best = (0, 1)
        best_waste = -math.inf
        for i in range(len(mbrs)):
            for j in range(i + 1, len(mbrs)):
                waste = mbrs[i].union(mbrs[j]).area - mbrs[i].area - mbrs[j].area
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, oid: int, pos: Point) -> LeafEntry:
        """Remove the entry with ``oid`` located at ``pos``.

        Raises ``KeyError`` when no such entry exists.
        """
        leaf = self._find_leaf(self.root, oid, pos)
        if leaf is None:
            raise KeyError(f"object {oid} not found at {pos}")
        return self._remove_from_leaf(leaf, oid)

    def _remove_from_leaf(self, leaf: Node, oid: int) -> LeafEntry:
        for i, entry in enumerate(leaf.entries):
            if entry.oid == oid:
                removed = leaf.entries.pop(i)
                break
        else:
            raise KeyError(f"object {oid} not in expected leaf")
        self._on_entry_removed(removed)
        self.size -= 1
        self._condense(leaf)
        return removed

    def _find_leaf(self, node: Node, oid: int, pos: Point) -> Optional[Node]:
        if node.mbr is None or not node.mbr.contains_point(pos):
            return None
        if node.is_leaf:
            if any(e.oid == oid for e in node.entries):
                return node
            return None
        for child in node.children:
            self.stats.fur_node_accesses += 1
            found = self._find_leaf(child, oid, pos)
            if found is not None:
                return found
        return None

    def _condense(self, node: Node) -> None:
        """Classic condense-tree: reinsert entries of underflowing nodes."""
        orphans: list[LeafEntry] = []
        current: Optional[Node] = node
        while current is not None and current.parent is not None:
            parent = current.parent
            if len(current) < self.min_entries:
                parent.children.remove(current)
                orphans.extend(self._collect_entries(current))
                current.parent = None
            else:
                current.refresh()
            current = parent
        self.root.refresh()
        # Shrink the root when it has a single internal child.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
        if not self.root.is_leaf and not self.root.children:
            self.root = Node(is_leaf=True)
        for entry in orphans:
            self.size -= 1  # insert() will add it back
            self.insert(entry)

    def _collect_entries(self, node: Node) -> Iterator[LeafEntry]:
        if node.is_leaf:
            for entry in node.entries:
                self._on_entry_removed(entry)
                yield entry
        else:
            for child in node.children:
                yield from self._collect_entries(child)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def entries(self) -> Iterator[LeafEntry]:
        """All leaf entries (arbitrary order)."""
        yield from self._collect_all(self.root)

    def _collect_all(self, node: Node) -> Iterator[LeafEntry]:
        if node.is_leaf:
            yield from node.entries
        else:
            for child in node.children:
                yield from self._collect_all(child)

    def search_range(self, rect: Rect) -> list[LeafEntry]:
        """All entries whose position lies inside ``rect`` (closed)."""
        out: list[LeafEntry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.fur_node_accesses += 1
            if node.mbr is None or not node.mbr.intersects(rect):
                continue
            if node.is_leaf:
                out.extend(e for e in node.entries if rect.contains_point(e.pos))
            else:
                stack.extend(node.children)
        return out

    def nn_search(
        self,
        q: Point,
        k: int = 1,
        exclude: frozenset[int] | set[int] = frozenset(),
        max_dist: float = math.inf,
    ) -> list[tuple[float, LeafEntry]]:
        """Exact k nearest entries to ``q``, nearest first (best-first search)."""
        counter = itertools.count()
        heap: list[tuple[float, int, object]] = [(0.0, next(counter), self.root)]
        results: list[tuple[float, LeafEntry]] = []
        while heap and len(results) < k:
            key, _, item = heapq.heappop(heap)
            if key > max_dist:
                break
            if isinstance(item, LeafEntry):
                results.append((key, item))
                continue
            node: Node = item
            self.stats.fur_node_accesses += 1
            if node.is_leaf:
                for entry in node.entries:
                    if entry.oid in exclude:
                        continue
                    d = dist(q, entry.pos)
                    if d <= max_dist:
                        heapq.heappush(heap, (d, next(counter), entry))
            else:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    d = child.mbr.mindist(q)
                    if d <= max_dist:
                        heapq.heappush(heap, (d, next(counter), child))
        return results

    def containment_search(self, p: Point, closed: bool = False) -> list[LeafEntry]:
        """Entries whose augmented circle contains ``p``.

        With ``closed=False`` (the default) circles are open — the
        circ-region containment query of ``updateCirc`` Step 2: find
        every candidate whose circ-region the point has strictly
        entered.  ``closed=True`` includes perimeter hits (the Rdnn-tree's
        NN-circles).
        Pruned by the per-node max radius aggregate.
        """
        self.stats.containment_queries += 1
        out: list[LeafEntry] = []
        stack = [self.root]
        if closed:
            while stack:
                node = stack.pop()
                self.stats.fur_node_accesses += 1
                if node.mbr is None or node.mbr.mindist(p) > node.max_radius:
                    continue
                if node.is_leaf:
                    out.extend(e for e in node.entries if dist(p, e.pos) <= e.radius)
                else:
                    stack.extend(node.children)
            return out
        while stack:
            node = stack.pop()
            self.stats.fur_node_accesses += 1
            if node.mbr is None or node.mbr.mindist(p) >= node.max_radius:
                continue
            if node.is_leaf:
                out.extend(e for e in node.entries if dist(p, e.pos) < e.radius)
            else:
                stack.extend(node.children)
        return out

    # ------------------------------------------------------------------
    # Validation (used heavily by tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage."""
        assert self.root.parent is None
        count = self._validate_node(self.root, is_root=True)
        assert count == self.size, f"size mismatch: counted {count}, recorded {self.size}"

    def _validate_node(self, node: Node, is_root: bool = False) -> int:
        if not is_root:
            assert len(node) >= self.min_entries, "underfull node"
        assert len(node) <= self.max_entries, "overfull node"
        if node.is_leaf:
            if node.entries:
                expected = Rect.union_of(e.mbr for e in node.entries)
                assert node.mbr == expected, "leaf MBR stale"
                assert node.max_radius == max(e.radius for e in node.entries)
            else:
                assert is_root, "empty non-root leaf"
            return len(node.entries)
        assert node.children, "empty internal node"
        total = 0
        depths = set()
        for child in node.children:
            assert child.parent is node, "broken parent pointer"
            assert child.mbr is not None
            assert node.mbr is not None and node.mbr.contains_rect(child.mbr)
            total += self._validate_node(child)
            depths.add(self._depth(child))
        assert len(depths) == 1, "unbalanced tree"
        expected = Rect.union_of(c.mbr for c in node.children)  # type: ignore[misc]
        assert node.mbr == expected, "internal MBR stale"
        assert node.max_radius == max(c.max_radius for c in node.children)
        return total

    def _depth(self, node: Node) -> int:
        d = 0
        while not node.is_leaf:
            node = node.children[0]
            d += 1
        return d
