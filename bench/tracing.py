"""Span tracing installed from the bench, at run time, around layer entry points.

Nothing under ``src/`` knows about this module.  :func:`install` wraps the
entry points listed in :data:`POINTS` — class methods on the class, module
functions in every ``repro`` namespace that imported them by name — and
each call records one span ``[name, parent, tick, start, end]`` in memory.
A layer's self time is its spans' duration minus what their child spans
cover, so the per-tick layer table sums to the root by construction.

Only boundaries entered at most a few thousand times per tick are wrapped;
``repro.geometry`` stays folded into its callers.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (span name, module, qualified attribute, lazy).  The part of the span
#: name before the last dot is the layer key the table groups by.  ``lazy``
#: entry points return generators: the wrapper exhausts them inside the
#: span (every caller on the benchmark's path consumes them whole at once),
#: so iteration cost lands in the layer that does the work.
POINTS: tuple[tuple[str, str, str, bool], ...] = (
    ("guard.sanitize_batch", "repro.robustness.guard", "IngestionGuard.sanitize_batch", False),
    ("grid.move.bulk_move_objects", "repro.grid.index", "GridIndex.bulk_move_objects", False),
    ("grid.move.insert_object", "repro.grid.index", "GridIndex.insert_object", False),
    ("grid.move.delete_object", "repro.grid.index", "GridIndex.delete_object", False),
    ("grid.move.ensure_csr", "repro.grid.index", "GridIndex.ensure_csr", False),
    ("grid.enum.cells_intersecting_pie", "repro.grid.index", "GridIndex.cells_intersecting_pie", True),
    ("grid.enum.cells_intersecting_circle", "repro.grid.index", "GridIndex.cells_intersecting_circle", True),
    ("grid.enum.circle_row_intervals", "repro.grid.index", "GridIndex.circle_row_intervals", True),
    ("cpm.nn_search", "repro.grid.cpm", "nn_search", False),
    ("cpm.constrained_knn_search", "repro.grid.cpm", "constrained_knn_search", False),
    ("kernels.nn_k1_vector", "repro.perf.kernels", "nn_k1_vector", False),
    ("kernels.constrained_nn_k1_vector", "repro.perf.kernels", "constrained_nn_k1_vector", False),
    ("kernels.EntrySnapshot", "repro.perf.kernels", "EntrySnapshot.__init__", False),
    ("kernels.batch_containment_candidates", "repro.perf.kernels", "EntrySnapshot.batch_containment_candidates", False),
    ("pie.build_affected_map_vector", "repro.core.update_pie", "build_affected_map_vector", False),
    ("pie.resolve_affected", "repro.core.update_pie", "_resolve_affected", False),
    ("pie.register_pie_cells", "repro.core.update_pie", "register_pie_cells", False),
    ("circ.process_moves", "repro.core.circ_store", "FurCircStore.process_moves", False),
    ("circ.set_circ", "repro.core.circ_store", "CircStoreBase.set_circ", False),
    ("circ.remove_circ", "repro.core.circ_store", "CircStoreBase.remove_circ", False),
    ("fur.insert", "repro.rtree.furtree", "FURTree.insert", False),
    ("fur.update", "repro.rtree.furtree", "FURTree.update", False),
    ("fur.update_radius", "repro.rtree.furtree", "FURTree.update_radius", False),
    ("fur.delete_by_id", "repro.rtree.furtree", "FURTree.delete_by_id", False),
    ("fur.entries", "repro.rtree.furtree", "FURTree.entries", True),
    ("init.init_crnn", "repro.core.init_crnn", "init_crnn", False),
    ("monitor.process", "repro.core.monitor", "CRNNMonitor.process", False),
    ("shard.process", "repro.shard.monitor", "ShardedCRNNMonitor.process", False),
    ("shard.executor_tick", "repro.shard.executor", "ProcessExecutor.tick", False),
    ("shard.broadcast", "repro.shard.supervisor", "ShardSupervisor.broadcast", False),
    ("shard.maybe_checkpoint", "repro.shard.supervisor", "ShardSupervisor.maybe_checkpoint", False),
    ("serve.decode.frames", "repro.serve.protocol", "FrameDecoder.frames", True),
    ("serve.decode.parse_message", "repro.serve.protocol", "parse_message", False),
    ("serve.encode.to_wire", "repro.serve.protocol", "to_wire", False),
    ("serve.encode.encode_frame", "repro.serve.protocol", "encode_frame", False),
)

ROOT = "tick"


def layer_of(span_name: str) -> str:
    """``grid.move.insert_object`` -> ``grid.move``; ``tick`` -> ``tick``."""
    return span_name.rpartition(".")[0] or span_name


class Tracer:
    """In-memory span recorder bound to one thread of one process."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        #: Five numbers per span — name id, parent span, tick, start, end —
        #: in one flat list: ints and floats are invisible to the cyclic
        #: collector, whereas a list per span (1000+ per tick) would push it
        #: into repeated full collections over the monitor's whole heap and
        #: bill them to whichever layer happened to be running.
        self._flat: list = []
        self._stack: list[int] = [-5]
        #: Thread that records; ``None`` = recording off.  Other threads
        #: (the wire client beside an in-process server) and forked shard
        #: workers call straight through.
        self.tid: int | None = None
        self.tick = -1
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.stop)

    # -- recording -------------------------------------------------------
    def start(self, tid: int | None = None) -> None:
        """Record spans entered on thread ``tid`` (default: the caller's)."""
        self.tid = threading.get_ident() if tid is None else tid

    def stop(self) -> None:
        """Stop recording; installed wrappers become pass-through."""
        self.tid = None

    def wrap(self, name: str, fn, lazy: bool = False):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        flat, stack, get_ident = self._flat, self._stack, threading.get_ident

        def traced(*args, **kwargs):
            if self.tid != get_ident():
                return fn(*args, **kwargs)
            at = len(flat)
            flat.extend((name_id, stack[-1] // 5, self.tick, perf_counter(), 0.0))
            stack.append(at)
            try:
                if lazy:
                    return iter(list(fn(*args, **kwargs)))
                return fn(*args, **kwargs)
            finally:
                flat[at + 4] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def root(self, fn):
        """``fn`` as the per-tick root span (the bench's own timed body)."""
        return self.wrap(ROOT, fn)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`POINTS` (undo with :meth:`uninstall`)."""
        for name, module_name, qualname, lazy in POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, attr)
                self.patch(owner, attr, self.wrap(name, original, lazy))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, lazy)
            # ``from x import f`` copies the reference: patch every repro
            # namespace holding it, e.g. repro.core.monitor.init_crnn.
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and mod_name.split(".")[0] == "repro":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.patch(mod, key, wrapped)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value``, remembered for :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    # -- analysis --------------------------------------------------------
    @property
    def spans(self) -> list[tuple]:
        """``(name_id, parent_span, tick, start, end)`` per recorded span."""
        flat = self._flat
        return [tuple(flat[i : i + 5]) for i in range(0, len(flat), 5)]

    def table(self) -> "LayerTable":
        """Self time and call count per span name and per layer."""
        return LayerTable(self.names, self.spans)

    def dump(self, path: str) -> None:
        """Write every span, columnar, for offline inspection."""
        flat = self._flat
        cols = [flat[k::5] for k in range(5)]
        t0 = min(cols[3], default=0.0)
        doc = {
            "names": self.names,
            "name": cols[0],
            "parent": cols[1],
            "tick": cols[2],
            "start_us": [round((t - t0) * 1e6, 1) for t in cols[3]],
            "dur_us": [round((e - s) * 1e6, 1) for s, e in zip(cols[3], cols[4])],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


_MISSING = object()


class LayerTable:
    """Per-name and per-layer self times (seconds) and call counts."""

    def __init__(self, names: list[str], spans: list[tuple]):
        covered = [0.0] * len(spans)
        for name_id, parent, _tick, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Sum of top-level span durations: what the self times add up to.
        self.root_s = 0.0
        self.ticks: set[int] = set()
        for i, (name_id, parent, tick, start, end) in enumerate(spans):
            name = names[name_id]
            self.self_s[name] += (end - start) - covered[i]
            self.calls[name] += 1
            if parent < 0:
                self.root_s += end - start
                self.ticks.add(tick)

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every span whose layer key is ``layer``."""
        return sum(s for name, s in self.self_s.items() if layer_of(name) == layer)

    def layer_calls(self, layer: str) -> int:
        """Calls of every span whose layer key starts with ``layer``."""
        return sum(c for name, c in self.calls.items() if layer_of(name) == layer)

    def layers(self) -> dict[str, float]:
        """layer key -> self seconds, over everything recorded."""
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[layer_of(name)] += s
        return dict(out)
