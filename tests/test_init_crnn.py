"""Tests for the CRNN initialisation (algorithm initCRNN)."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.init_crnn import init_crnn
from repro.core.oracle import brute_force_rnn
from repro.geometry.point import Point, dist
from repro.geometry.rect import Rect
from repro.geometry.sector import NUM_SECTORS, sector_of
from repro.grid.index import GridIndex

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)
# Lattice coordinates: squared distances are exact multiples of 0.25,
# giving the SAE candidate lemma a real numeric margin (adversarial
# raw floats can make 1 - 1e-146 round to 1.0 and break strictness).
coords = st.integers(min_value=0, max_value=2000).map(lambda i: i * 0.5)
points = st.builds(Point, coords, coords)


def _grid_with(objects: dict[int, Point], n: int = 8) -> GridIndex:
    g = GridIndex(BOUNDS, n)
    for oid, p in objects.items():
        g.insert_object(oid, p)
    return g


class TestResults:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(points, min_size=0, max_size=40, unique=True),
        points,
        st.sampled_from([2, 5, 11]),
    )
    def test_rnns_match_brute_force(self, pts, q, n):
        objects = {i: p for i, p in enumerate(pts) if p != q}
        g = _grid_with(objects, n=n)
        res = init_crnn(g, q)
        assert res.rnns() == set(brute_force_rnn(objects, q))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(points, min_size=0, max_size=40, unique=True), points)
    def test_candidates_are_constrained_nns(self, pts, q):
        objects = {i: p for i, p in enumerate(pts) if p != q}
        g = _grid_with(objects)
        res = init_crnn(g, q)
        for sector in range(NUM_SECTORS):
            in_sector = [
                dist(q, p) for oid, p in objects.items() if sector_of(q, p) == sector
            ]
            if not in_sector:
                assert res.cand[sector] is None
                assert math.isinf(res.d_cand[sector])
            else:
                assert res.cand[sector] is not None
                assert res.d_cand[sector] == min(in_sector)

    def test_empty_grid(self):
        g = _grid_with({})
        res = init_crnn(g, Point(1.0, 1.0))
        assert res.rnns() == set()
        assert all(c is None for c in res.cand)


def _bounded_nn(objects: dict[int, Point], cand: int, bound: float):
    """``(distance, oid)`` of ``cand``'s NN strictly within ``bound``, else ``None``."""
    cand_pos = objects[cand]
    best = min(
        ((dist(cand_pos, p), oid) for oid, p in objects.items() if oid != cand),
        default=None,
    )
    return best if best is not None and best[0] < bound else None


class TestCertificates:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(points, min_size=1, max_size=40, unique=True), points)
    def test_certificate_semantics(self, pts, q):
        """The certificate is the candidate's bounded NN under
        ``(distance, oid)`` order; ``nn=None`` exactly when no object is
        strictly nearer to the candidate than ``q`` (a true RNN)."""
        objects = {i: p for i, p in enumerate(pts) if p != q}
        g = _grid_with(objects)
        res = init_crnn(g, q)
        for sector in range(NUM_SECTORS):
            cand = res.cand[sector]
            if cand is None:
                continue
            want = _bounded_nn(objects, cand, res.d_cand[sector])
            if want is None:
                assert res.nn[sector] is None
                assert math.isinf(res.d_nn[sector])
            else:
                assert (res.d_nn[sector], res.nn[sector]) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=40, unique=True), points)
    def test_certificates_are_tight_by_default(self, pts, q):
        # No variant switch: every variant's registration starts from the
        # candidate's true NN distance, never a looser disprover.
        objects = {i: p for i, p in enumerate(pts) if p != q}
        g = _grid_with(objects)
        res = init_crnn(g, q)
        for sector in range(NUM_SECTORS):
            cand = res.cand[sector]
            if cand is None or res.nn[sector] is None:
                continue
            cand_pos = objects[cand]
            true_nn = min(
                dist(cand_pos, p) for oid, p in objects.items() if oid != cand
            )
            assert res.d_nn[sector] == true_nn


class TestExclusions:
    def test_excluded_objects_invisible(self):
        objects = {1: Point(100.0, 100.0), 2: Point(110.0, 100.0)}
        g = _grid_with(objects)
        q = Point(105.0, 100.0)
        res = init_crnn(g, q, exclude=frozenset({1}))
        assert res.rnns() == set(brute_force_rnn(objects, q, exclude={1}))
        assert all(c != 1 for c in res.cand if c is not None)
        assert all(n != 1 for n in res.nn if n is not None)


class TestScalability:
    def test_dense_grid_consistency(self):
        rng = random.Random(12)
        objects = {
            oid: Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for oid in range(400)
        }
        for n in (4, 16, 50):
            g = _grid_with(objects, n=n)
            q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            res = init_crnn(g, q)
            assert res.rnns() == set(brute_force_rnn(objects, q))
