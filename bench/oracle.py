"""Brute-force correctness checks run, untimed, after every workload.

``rnn_by_definition`` shares nothing with the program under test: it
takes positions replayed from the generated stream and applies the RNN
definition with chunked all-pairs NumPy arithmetic.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Rows of the all-pairs distance block held at once (rows x n float64);
#: small enough to stay cache-resident (7x faster than 512 at n = 20k).
_CHUNK = 64


def rnn_by_definition(
    objects: dict[int, tuple[float, float]], queries: dict[int, tuple[float, float]]
) -> dict[int, frozenset[int]]:
    """``o in RNN(q)  <=>  d(o, q) <= nnd(o)`` over every query.

    ``nnd(o)`` is the distance from ``o`` to its nearest *other* object.
    The nearest neighbour is found on squared distances; the deciding
    comparison uses ``hypot`` — the program's own distance primitive — so
    a tie resolves the same way on both sides.
    """
    if not objects:
        return {qid: frozenset() for qid in queries}
    ids = np.fromiter(objects, np.int64, len(objects))
    pts = np.array([objects[int(i)] for i in ids], dtype=np.float64)
    xs, ys = pts[:, 0], pts[:, 1]
    n = len(ids)
    nnd = np.full(n, np.inf)
    if n > 1:
        buf_x = np.empty((_CHUNK, n))
        buf_y = np.empty((_CHUNK, n))
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            d2, dy = buf_x[: hi - lo], buf_y[: hi - lo]
            np.subtract(xs[lo:hi, None], xs[None, :], out=d2)
            np.subtract(ys[lo:hi, None], ys[None, :], out=dy)
            d2 *= d2
            dy *= dy
            d2 += dy
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # not itself
            nn = np.argmin(d2, axis=1)
            nnd[lo:hi] = np.hypot(xs[lo:hi] - xs[nn], ys[lo:hi] - ys[nn])
    out = {}
    for qid, (qx, qy) in queries.items():
        member = np.hypot(xs - qx, ys - qy) <= nnd
        out[qid] = frozenset(ids[member].tolist())
    return out


class EventFold:
    """Folds drained events onto the initial results and hashes the stream.

    After the last tick the folded sets must equal the program's final
    results, and two runs over the same stream must produce equal digests
    tick for tick (``obj-move-k2`` against ``obj-move``).
    """

    def __init__(self, initial: dict[int, frozenset[int]]):
        self.sets: dict[int, set[int]] = {q: set(r) for q, r in initial.items()}
        self._hash = hashlib.sha256()
        #: Hex digest of the event stream after each folded tick.
        self.digests: list[str] = []
        self.events = 0

    def tick(self, events) -> None:
        """Fold one tick's ``(qid, oid, gained)`` changes, in emission order."""
        for qid, oid, gained in events:
            members = self.sets.setdefault(qid, set())
            if gained:
                members.add(oid)
            else:
                members.discard(oid)
            self._hash.update(b"%d,%d,%d;" % (qid, oid, gained))
        self._hash.update(b"|")
        self.events += len(events)
        self.digests.append(self._hash.hexdigest())

    def mismatches(self, final: dict[int, frozenset[int]]) -> int:
        """Queries whose folded set differs from the program's final result.

        A deregistered query must have folded back to the empty set.
        """
        bad = sum(1 for q, r in final.items() if self.sets.get(q, set()) != set(r))
        bad += sum(1 for q, s in self.sets.items() if q not in final and s)
        return bad


def result_mismatches(
    got: dict[int, frozenset[int]], want: dict[int, frozenset[int]]
) -> int:
    """Queries on which ``got`` differs from the oracle's ``want``."""
    return sum(1 for q in want.keys() | got.keys() if got.get(q) != want.get(q))
