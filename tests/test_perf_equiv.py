"""Differential equivalence suites for the vectorized kernels (ISSUE 2).

Every vectorized hot-path kernel has a scalar reference twin; these
hypothesis-driven suites prove the pairs bit-identical on random and
adversarial inputs:

* ``sector_of_vector`` vs ``sector_of``, including points exactly on
  sector boundary rays and the ``p == q`` convention;
* the ring-expansion NN kernels vs the heap-based scalar searches,
  including distance ties, cell-boundary coordinates, excluded ids and
  tight ``max_dist`` bounds;
* the multi-query kernel behind ``nn_search_batch`` vs the same scalar
  searches, request by request — plain and constrained requests mixed
  in one call, batches of one request up to a dozen;
* the one-gather ``initCRNN`` kernel vs the heap traversal of Fig. 7 —
  whole ``InitResult`` equality on lattice layouts (exact ties across
  cells), sector rays, coincident and excluded objects, border queries
  with empty sectors, and the certificate fallback;
* ``EntrySnapshot`` — the circ store's live circle table — against a
  plain dict of circles: exact containment search, prefilter superset
  property, sort-and-sweep batch (and ``PointSweep.disc``) / per-point
  agreement, and the slot map through insert / move / radius change /
  swap-remove.

Adversarial inputs deliberately target the classic failure modes of a
vectorization: points on cell boundaries (truncation vs rounding),
points on sector rays (cross-product sign flips), zero radii, and
coincident/tied positions.
"""

from __future__ import annotations

import math
import random

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.init_crnn import _init_crnn_scalar, init_crnn
from repro.geometry.point import Point, dist
from repro.geometry.rect import Rect
from repro.geometry.sector import _BOUNDARY_DIRS, NUM_SECTORS, sector_of
from repro.grid.cpm import (
    _constrained_knn_search_scalar,
    _nn_search_scalar,
    nn_search_batch,
)
from repro.grid.index import GridIndex
from repro.perf.kernels import (
    _TARGET_FIRST_RING,
    EntrySnapshot,
    PointSweep,
    _first_radius,
    constrained_nn_k1_vector,
    nn_k1_multi,
    nn_k1_vector,
    sector_of_vector,
)

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)

coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=64)
points = st.tuples(coords, coords).map(lambda t: Point(*t))

#: Coordinates that sit exactly on cell boundaries for a 16-cell grid
#: over ``BOUNDS`` (cell width 62.5 is exact in binary floating point).
cell_edge_coords = st.integers(min_value=0, max_value=16).map(lambda i: i * 62.5)
cell_edge_points = st.tuples(cell_edge_coords, cell_edge_coords).map(
    lambda t: Point(*t)
)

mixed_points = st.one_of(points, cell_edge_points)


def _ray_point(q: Point, ray: int, dist: float) -> Point:
    """A point (approximately) on sector boundary ray ``ray`` from ``q``."""
    dx, dy = _BOUNDARY_DIRS[ray]
    return Point(q[0] + dist * dx, q[1] + dist * dy)


# ----------------------------------------------------------------------
# sector_of_vector
# ----------------------------------------------------------------------
class TestSectorOfVector:
    @settings(max_examples=60, deadline=None)
    @given(q=points, pts=st.lists(mixed_points, min_size=1, max_size=30))
    def test_matches_scalar_on_random_points(self, q, pts):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        got = sector_of_vector(q, xs, ys).tolist()
        want = [sector_of(q, p) for p in pts]
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(
        q=points,
        ray=st.integers(min_value=0, max_value=6),
        dist=st.floats(min_value=1e-6, max_value=500.0, allow_nan=False),
    )
    def test_matches_scalar_on_boundary_rays(self, q, ray, dist):
        p = _ray_point(q, ray, dist)
        got = sector_of_vector(q, np.array([p[0]]), np.array([p[1]]))
        assert int(got[0]) == sector_of(q, p)

    def test_coincident_point_is_sector_zero(self):
        q = Point(123.25, 77.5)
        got = sector_of_vector(q, np.array([q[0]]), np.array([q[1]]))
        assert int(got[0]) == sector_of(q, q) == 0

    def test_axis_aligned_rays_exact(self):
        # The exact-constant boundary table makes horizontal/vertical
        # rays exact; the vector twin must reproduce the same closed /
        # open side decisions.
        q = Point(500.0, 500.0)
        pts = [
            Point(600.0, 500.0),  # +x axis: on ray 0 -> sector 0
            Point(400.0, 500.0),  # -x axis: on ray 3 -> sector 3
            Point(500.0, 600.0),  # +y axis: inside sector 1
            Point(500.0, 400.0),  # -y axis: inside sector 4
        ]
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        assert sector_of_vector(q, xs, ys).tolist() == [sector_of(q, p) for p in pts]


# ----------------------------------------------------------------------
# NN kernels
# ----------------------------------------------------------------------
def _populated_grid(pts: list[Point], cells: int = 16) -> GridIndex:
    grid = GridIndex(BOUNDS, cells_per_axis=cells)
    for oid, p in enumerate(pts):
        grid.insert_object(oid, p)
    grid.ensure_csr()
    return grid


#: Object layouts that include coincident points (distance ties, which
#: must be broken by oid identically in both kernels).
object_lists = st.lists(mixed_points, min_size=0, max_size=40).flatmap(
    lambda pts: st.just(pts + pts[:3])
)

max_dists = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
)


class TestNNKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        pts=object_lists,
        q=mixed_points,
        max_dist=max_dists,
        n_excl=st.integers(min_value=0, max_value=4),
    )
    def test_nn_k1_matches_scalar_heap(self, pts, q, max_dist, n_excl):
        grid = _populated_grid(pts)
        exclude = frozenset(range(n_excl))
        want = _nn_search_scalar(grid, q, 1, exclude, max_dist)
        got = nn_k1_vector(grid, q, exclude=exclude, max_dist=max_dist)
        assert ([got] if got is not None else []) == want

    @settings(max_examples=80, deadline=None)
    @given(
        pts=object_lists,
        q=mixed_points,
        sector=st.integers(min_value=0, max_value=NUM_SECTORS - 1),
        max_dist=max_dists,
        n_excl=st.integers(min_value=0, max_value=4),
    )
    def test_constrained_nn_k1_matches_scalar_heap(self, pts, q, sector, max_dist, n_excl):
        grid = _populated_grid(pts)
        exclude = frozenset(range(n_excl))
        want = _constrained_knn_search_scalar(grid, q, sector, 1, exclude, max_dist)
        got = constrained_nn_k1_vector(grid, q, sector, exclude=exclude, max_dist=max_dist)
        assert ([got] if got is not None else []) == want

    @settings(max_examples=30, deadline=None)
    @given(
        q=points,
        dists=st.lists(
            st.floats(min_value=1e-3, max_value=400.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        rays=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
    )
    def test_constrained_on_sector_ray_objects(self, q, dists, rays):
        # Objects sitting (approximately) on the boundary rays are the
        # worst case for the sector filter: a one-ulp disagreement
        # between scalar and vector sector assignment would surface as a
        # different constrained NN.
        pts = [_ray_point(q, ray, d) for ray, d in zip(rays, dists)]
        pts = [p for p in pts if BOUNDS.contains_point(p)]
        if not pts:
            return
        grid = _populated_grid(pts)
        for sector in range(NUM_SECTORS):
            want = _constrained_knn_search_scalar(grid, q, sector, 1)
            got = constrained_nn_k1_vector(grid, q, sector)
            assert ([got] if got is not None else []) == want, f"sector {sector}"

    def test_empty_grid_returns_none(self):
        grid = _populated_grid([])
        assert nn_k1_vector(grid, Point(10.0, 10.0)) is None
        assert constrained_nn_k1_vector(grid, Point(10.0, 10.0), 2) is None

    def test_max_dist_exactly_at_neighbor_distance(self):
        # Both twins use a closed bound (d <= max_dist): an object at
        # exactly max_dist is reported, one ulp past it is not.
        grid = _populated_grid([Point(130.0, 100.0)])
        q = Point(100.0, 100.0)
        want = _nn_search_scalar(grid, q, 1, (), 30.0)
        got = nn_k1_vector(grid, q, max_dist=30.0)
        assert got == (30.0, 0) and [got] == want
        assert nn_k1_vector(grid, q, max_dist=math.nextafter(30.0, 0.0)) is None

    def test_zero_bound_on_the_border_still_reads_own_cell(self):
        # The top border row's upper edge is a rounded sum that can land
        # below the border coordinate; a zero-radius gather must not
        # lose the cell of a coincident object there.
        pts = [Point(350.0, 1000.0), Point(350.0, 1000.0), Point(100.0, 100.0)]
        grid = _populated_grid(pts, cells=11)
        q = Point(350.0, 1000.0)
        want = _nn_search_scalar(grid, q, 1, {0}, 0.0)
        got = nn_k1_vector(grid, q, exclude={0}, max_dist=0.0)
        assert got == (0.0, 1) and [got] == want

    def test_large_random_grid_spot_check(self):
        rng = random.Random(7)
        pts = [
            Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(800)
        ]
        grid = _populated_grid(pts, cells=20)
        for _ in range(120):
            q = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            assert nn_k1_vector(grid, q) == _nn_search_scalar(grid, q, 1)[0]
            sector = rng.randrange(NUM_SECTORS)
            want = _constrained_knn_search_scalar(grid, q, sector, 1)
            got = constrained_nn_k1_vector(grid, q, sector)
            assert ([got] if got is not None else []) == want


# ----------------------------------------------------------------------
# initCRNN twins
# ----------------------------------------------------------------------
#: A 25-unit lattice over ``BOUNDS``, border included: distances between
#: lattice points are exact, so equidistant objects tie bit-for-bit — in
#: the same sector and, at these grid resolutions, in different cells —
#: and only the ``(distance, oid)`` order separates them.
lattice_coords = st.integers(min_value=0, max_value=40).map(lambda i: i * 25.0)
lattice_points = st.tuples(lattice_coords, lattice_coords).map(lambda t: Point(*t))
init_grids = st.sampled_from([2, 5, 11, 128])


def _assert_init_twins_agree(pts, q, cells, exclude=frozenset()):
    """Heap traversal on a scalar-only grid == kernel on a CSR-fresh one."""
    ref = _populated_grid(pts, cells)
    ref.vector_enabled = False
    fast = _populated_grid(pts, cells)
    want = _init_crnn_scalar(ref, q, exclude)
    got = init_crnn(fast, q, exclude)
    assert fast.stats.vector_nn_kernel_calls >= 1 and fast.stats.heap_pops == 0
    assert got == want
    # One bounded-NN evaluation per candidate, whichever twin ran.
    assert fast.stats.nn_searches == ref.stats.nn_searches
    return got, fast


class TestInitCRNNEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        pts=st.lists(lattice_points, min_size=0, max_size=40),
        q=lattice_points,
        cells=init_grids,
        n_excl=st.integers(min_value=0, max_value=4),
        crowd=st.sampled_from([0, 600]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_init_matches_scalar_heap_on_lattice(self, pts, q, cells, n_excl, crowd, seed):
        # ``crowd`` seeded extra lattice points make the first gather a
        # proper sub-disk of the data space (a small layout is gathered
        # whole), so candidates and certificates near its rim and the
        # per-sector pie expansion are all exercised; ``q`` itself is a
        # lattice point, so it is regularly coincident with an object,
        # on the border with sectors facing out of the data space, and
        # level with objects on the two horizontal boundary rays.
        rng = random.Random(seed)
        pts = pts + [
            Point(rng.randrange(41) * 25.0, rng.randrange(41) * 25.0)
            for _ in range(crowd)
        ]
        _assert_init_twins_agree(pts, q, cells, frozenset(range(n_excl)))

    @settings(max_examples=60, deadline=None)
    @given(
        pts=object_lists,
        q=mixed_points,
        cells=init_grids,
        n_excl=st.integers(min_value=0, max_value=4),
    )
    def test_init_matches_scalar_heap_on_raw_floats(self, pts, q, cells, n_excl):
        _assert_init_twins_agree(pts, q, cells, frozenset(range(n_excl)))

    @settings(max_examples=40, deadline=None)
    @given(
        q=points,
        dists=st.lists(
            st.floats(min_value=1e-3, max_value=400.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        rays=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
        cells=init_grids,
    )
    def test_init_on_sector_ray_objects(self, q, dists, rays, cells):
        pts = [_ray_point(q, ray, d) for ray, d in zip(rays, dists)]
        pts = [p for p in pts if BOUNDS.contains_point(p)] + [q]
        _assert_init_twins_agree(pts, q, cells)

    def test_empty_grid(self):
        for cells in (2, 5, 11, 128):
            got, _ = _assert_init_twins_agree([], Point(10.0, 10.0), cells)
            assert got.cand == [None] * NUM_SECTORS and got.rnns() == set()

    def test_border_query_with_empty_sectors(self):
        # q in the bottom-left corner: sectors 2..5 face out of the data
        # space (sector 5 keeps only the bottom border itself) and must
        # come back empty without their expansion finding anything.
        rng = random.Random(3)
        pts = [Point(rng.uniform(0, 1000), rng.uniform(1, 1000)) for _ in range(500)]
        got, fast = _assert_init_twins_agree(pts, Point(0.0, 0.0), 128)
        assert got.cand[2:] == [None] * 4
        assert got.cand[0] is not None and got.cand[1] is not None

    def test_certificate_fallback_when_gather_cannot_cover(self):
        # 400 objects make the first disk ~565 wide.  Sector 0's
        # candidate sits 400 away — inside it, so final in one gather —
        # but its disprover 300 further out along the same ray lies
        # outside: disk(cand, d_cand) is not covered and the certificate
        # must come from the bounded NN search instead.
        rng = random.Random(5)
        crowd = [
            Point(rng.uniform(850, 1000), rng.uniform(850, 1000)) for _ in range(398)
        ]
        pts = [Point(500.0, 100.0), Point(800.0, 100.0)] + crowd
        got, fast = _assert_init_twins_agree(pts, Point(100.0, 100.0), 128)
        assert (got.cand[0], got.d_cand[0]) == (0, 400.0)
        assert (got.nn[0], got.d_nn[0]) == (1, 300.0)
        assert fast.stats.vector_nn_kernel_fallbacks >= 1


# ----------------------------------------------------------------------
# Multi-query k=1 kernel (nn_search_batch)
# ----------------------------------------------------------------------
def _scalar_answer(grid, request):
    q, sector, exclude, max_dist = request
    if sector is None:
        found = _nn_search_scalar(grid, q, 1, exclude, max_dist)
    else:
        found = _constrained_knn_search_scalar(grid, q, sector, 1, exclude, max_dist)
    return found[0] if found else None


def _assert_batch_twins_agree(pts, requests, cells):
    """Scalar twins request by request == the kernel == both entry dispatches."""
    ref = _populated_grid(pts, cells)
    ref.vector_enabled = False
    fast = _populated_grid(pts, cells)
    want = [_scalar_answer(ref, rq) for rq in requests]
    # The kernel itself, whatever the batch size ...
    assert nn_k1_multi(fast, requests) == want
    # ... and the entry point, which loops the scalar twins on a grid
    # without vector dispatch.
    counted = (fast.stats.snapshot(), ref.stats.snapshot())
    assert nn_search_batch(fast, requests) == want
    assert nn_search_batch(ref, requests) == want
    constrained = sum(1 for rq in requests if rq[1] is not None)
    for grid, before in zip((fast, ref), counted):
        delta = grid.stats.diff(before)
        # One logical search per request answered, whichever twin ran.
        assert delta["constrained_nn_searches"] == constrained
        assert delta["nn_searches"] == len(requests) - constrained
    return want, fast


#: Bounds that tie exactly with lattice distances, plus the two extremes.
batch_bounds = st.one_of(
    st.just(math.inf),
    st.just(0.0),
    st.integers(min_value=1, max_value=12).map(lambda i: i * 25.0),
    st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
)


@st.composite
def batch_cases(draw, point_strategy):
    """A layout plus mixed plain/constrained requests against it.

    A request's centre is a fresh point or — one time in three — the
    position of a live object, which is then also offered for exclusion:
    the certificate search's shape (centre = the candidate, excluded).
    """
    pts = draw(st.lists(point_strategy, min_size=0, max_size=40))
    pts = pts + pts[:3]  # coincident objects: ties broken by oid
    size = draw(st.sampled_from([1, 2, 3, 5, 12]))
    requests = []
    for _ in range(size):
        exclude = set(draw(st.lists(st.integers(min_value=0, max_value=8), max_size=3)))
        if pts and draw(st.integers(min_value=0, max_value=2)) == 0:
            centre_oid = draw(st.integers(min_value=0, max_value=len(pts) - 1))
            q = pts[centre_oid]
            if draw(st.booleans()):
                exclude.add(centre_oid)
        else:
            q = draw(point_strategy)
        sector = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=NUM_SECTORS - 1)))
        requests.append((q, sector, frozenset(exclude), draw(batch_bounds)))
    return pts, requests


class TestMultiQueryKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        case=batch_cases(lattice_points),
        cells=init_grids,
        crowd=st.sampled_from([0, 600]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_batch_matches_scalar_twins_on_lattice(self, case, cells, crowd, seed):
        # Lattice layouts tie exactly — across cells, across the bound,
        # on the two horizontal sector rays and with the centre itself;
        # the seeded crowd makes the first ring a proper sub-disk so the
        # expansion, and border-facing sectors' empty boxes, are walked.
        pts, requests = case
        rng = random.Random(seed)
        pts = pts + [
            Point(rng.randrange(41) * 25.0, rng.randrange(41) * 25.0)
            for _ in range(crowd)
        ]
        _assert_batch_twins_agree(pts, requests, cells)

    @settings(max_examples=80, deadline=None)
    @given(case=batch_cases(mixed_points), cells=init_grids)
    def test_batch_matches_scalar_twins_on_raw_floats(self, case, cells):
        pts, requests = case
        _assert_batch_twins_agree(pts, requests, cells)

    @settings(max_examples=30, deadline=None)
    @given(
        q=points,
        dists=st.lists(
            st.floats(min_value=1e-3, max_value=400.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        rays=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
        cells=init_grids,
    )
    def test_batch_on_sector_ray_objects(self, q, dists, rays, cells):
        # Objects (approximately) on the boundary rays sit on the edges
        # of the per-sector gather boxes: all six sectors plus the plain
        # search around the same centre, in one call.
        pts = [_ray_point(q, ray, d) for ray, d in zip(rays, dists)]
        pts = [p for p in pts if BOUNDS.contains_point(p)] + [q]
        requests = [(q, s, frozenset(), math.inf) for s in (None, *range(NUM_SECTORS))]
        _assert_batch_twins_agree(pts, requests, cells)

    def test_empty_grid_and_empty_batch(self):
        for cells in (2, 5, 11, 128):
            requests = [(Point(10.0, 10.0), s, frozenset(), math.inf) for s in (None, 0, 3, 5, None)]
            want, fast = _assert_batch_twins_agree([], requests, cells)
            assert want == [None] * 5
            assert nn_search_batch(fast, []) == [] == nn_k1_multi(fast, [])

    def test_border_query_with_empty_sectors(self):
        # q in the bottom-left corner: sectors 2..5 face out of the data
        # space and must come back empty after expanding to full cover.
        rng = random.Random(3)
        pts = [Point(rng.uniform(0, 1000), rng.uniform(1, 1000)) for _ in range(500)]
        q = Point(0.0, 0.0)
        requests = [(q, s, frozenset(), math.inf) for s in range(NUM_SECTORS)]
        want, _ = _assert_batch_twins_agree(pts, requests, 128)
        assert want[2:] == [None] * 4 and None not in want[:2]

    def test_far_cluster_needs_three_or_more_rings(self):
        # Every object sits in the far corner: the first radius is sized
        # for 16 objects at the mean density, and two triplings of it
        # still fall short of the cluster, so these requests are open for
        # at least three rounds while their batch-mates close in the first.
        rng = random.Random(5)
        pts = [Point(rng.uniform(850, 1000), rng.uniform(850, 1000)) for _ in range(2000)]
        far = Point(100.0, 100.0)
        requests = [
            (far, None, frozenset(), math.inf),
            (far, 0, frozenset(), math.inf),
            (far, 1, frozenset(), 2000.0),
            (far, 0, frozenset(), 900.0),  # bound reached first: nothing
            (Point(900.0, 900.0), None, frozenset(), math.inf),
            (Point(900.0, 900.0), 4, frozenset(), math.inf),
        ]
        want, fast = _assert_batch_twins_agree(pts, requests, 128)
        assert 9.0 * _first_radius(fast, _TARGET_FIRST_RING) < want[0][0]
        assert want[3] is None and want[4][0] < 20.0

    def test_one_kernel_entry_whatever_the_batch_size(self):
        rng = random.Random(11)
        pts = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(300)]
        pool = [
            (Point(rng.uniform(0, 1000), rng.uniform(0, 1000)), s, frozenset({rng.randrange(300)}), 400.0)
            for s in (None, 0, 1, None, 2, 3, None, 4, 5)
        ]
        for size in (1, 3, len(pool)):
            want, fast = _assert_batch_twins_agree(pts, pool[:size], 16)
            before = fast.stats.vector_nn_kernel_calls
            assert nn_search_batch(fast, pool[:size]) == want
            assert fast.stats.vector_nn_kernel_calls - before == 1


# ----------------------------------------------------------------------
# EntrySnapshot containment prefilter
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("oid", "pos", "radius")

    def __init__(self, oid, pos, radius):
        self.oid = oid
        self.pos = pos
        self.radius = radius


# Centres and probes share x coordinates (a lattice column, so slab ends
# fall exactly on points), radii include zero and circles wider than the
# bounds (a slab that holds every point).
_sweep_coords = st.one_of(coords, st.integers(0, 8).map(lambda i: 125.0 * i))
sweep_points = st.builds(Point, _sweep_coords, _sweep_coords)
entry_lists = st.lists(
    st.tuples(
        sweep_points,
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
            st.floats(min_value=1000.0, max_value=3000.0, allow_nan=False),
        ),
    ),
    min_size=0,
    max_size=25,
).map(lambda raw: [_Entry(i, p, r) for i, (p, r) in enumerate(raw)])


class TestEntrySnapshot:
    @settings(max_examples=60, deadline=None)
    @given(entries=entry_lists, pts=st.lists(sweep_points, min_size=0, max_size=15))
    def test_batch_rows_equal_per_point_calls(self, entries, pts):
        snap = EntrySnapshot(entries)
        rows = snap.batch_containment_candidates(PointSweep(pts))
        assert all(rows.values()) and set(rows) <= set(range(len(pts)))
        assert [rows.get(i, []) for i in range(len(pts))] == [
            snap.containment_candidates(p) for p in pts
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        entries=entry_lists,
        pts=st.lists(sweep_points, min_size=0, max_size=15),
        first=st.integers(0, 15),
    )
    def test_disc_equals_the_banded_test_of_one_circle(self, entries, pts, first):
        # Labels are move indices in the circ store: use spread-out ones.
        labels = [3 * i for i in range(len(pts))]
        sweep = PointSweep(pts, labels)
        for e in entries:
            one = EntrySnapshot([e])
            want = [j for j, p in zip(labels, pts) if j >= first and one.containment_candidates(p)]
            assert sorted(sweep.disc(e.pos, e.radius, first)) == want

    @settings(max_examples=60, deadline=None)
    @given(entries=entry_lists, p=points)
    def test_prefilter_is_superset_of_exact_predicate(self, entries, p):
        # The guard-banded squared-distance prefilter must never drop an
        # entry the exact open predicate accepts (the store re-verifies
        # hits exactly, so false positives are fine; false negatives
        # would lose result changes).
        snap = EntrySnapshot(entries)
        cands = set(snap.containment_candidates(p))
        for e in entries:
            if math.hypot(p[0] - e.pos[0], p[1] - e.pos[1]) < e.radius:
                assert e.oid in cands

    def test_zero_radius_entries_never_match(self):
        # The exact predicate is open (d < r), so a zero-radius circle
        # contains nothing: the banded prefilter may report its centre,
        # the exact search reports nothing, and both report nothing for
        # any other point.
        centre = Point(10.0, 10.0)
        snap = EntrySnapshot([_Entry(0, centre, 0.0)])
        assert snap.containment_candidates(centre) in ([], [0])
        assert snap.containment_search(centre) == []
        for p in (Point(11.0, 10.0), Point(10.0, 10.0 + 1e-9), Point(900.0, 10.0)):
            assert snap.containment_candidates(p) == []
            assert snap.containment_search(p) == []


# Lattice centres and radii make coincident centres, zero radii and
# probes exactly on a perimeter (centre + radius along an axis, exact in
# binary floating point) common rather than measure-zero.
_table_coords = st.one_of(
    st.integers(0, 8).map(lambda i: 25.0 * i),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False, width=64),
)
_table_points = st.builds(Point, _table_coords, _table_coords)
_table_radii = st.one_of(
    st.just(0.0),
    st.integers(1, 6).map(lambda i: 25.0 * i),
    st.floats(min_value=0.0, max_value=150.0, allow_nan=False, width=64),
)


class CircleTableMachine(RuleBasedStateMachine):
    """The live circle table against a plain dict of circles.

    After every step the exact ``containment_search`` equals brute force,
    every batched prefilter row is a superset of it, and ``validate()``
    holds (slot map and arrays agree, no holes).  Probes are each
    circle's centre and its four axis perimeter points, plus a few
    drawn points.
    """

    def __init__(self):
        super().__init__()
        self.table = EntrySnapshot()
        self.model: dict[int, tuple[Point, float]] = {}
        self.drawn: list[Point] = []
        self.next_oid = 0

    def _pick(self, data):
        return data.draw(st.sampled_from(sorted(self.model)))

    @rule(p=_table_points, r=_table_radii)
    def insert(self, p, r):
        self.table.put(self.next_oid, p, r)
        self.model[self.next_oid] = (p, r)
        self.next_oid += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data(), p=_table_points)
    def move(self, data, p):
        oid = self._pick(data)
        self.table.put(oid, p, self.model[oid][1])
        self.model[oid] = (p, self.model[oid][1])

    @precondition(lambda self: self.model)
    @rule(data=st.data(), r=_table_radii)
    def change_radius(self, data, r):
        oid = self._pick(data)
        self.table.put(oid, self.model[oid][0], r)
        self.model[oid] = (self.model[oid][0], r)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        oid = self._pick(data)
        self.table.remove(oid)
        del self.model[oid]

    @precondition(lambda self: len(self.model) > 1)
    @rule(data=st.data())
    def delete_by_slot(self, data):
        # Slot 0, a middle slot or the last slot: the swap-remove cases.
        n = len(self.table)
        i = data.draw(st.sampled_from(sorted({0, n // 2, n - 1})))
        oid = int(self.table.oids[i])
        self.table.remove(oid)
        del self.model[oid]

    @rule(p=_table_points)
    def probe(self, p):
        self.drawn = (self.drawn + [p])[-4:]

    @invariant()
    def matches_brute_force(self):
        self.table.validate()
        assert len(self.table) == len(self.model)
        probes = list(self.drawn)
        for oid, (c, r) in self.model.items():
            assert self.table.get(oid) == (c, r)
            probes += [c, Point(c.x + r, c.y), Point(c.x - r, c.y),
                       Point(c.x, c.y + r), Point(c.x, c.y - r)]
        want = [
            sorted(oid for oid, (c, r) in self.model.items() if dist(p, c) < r)
            for p in probes
        ]
        got = [[oid for oid, _ in self.table.containment_search(p)] for p in probes]
        assert got == want
        rows = self.table.batch_containment_candidates(PointSweep(probes))
        for i, (p, exact) in enumerate(zip(probes, want)):
            assert set(exact) <= set(rows.get(i, ())), f"prefilter dropped a hit at {p}"


TestCircleTableMachine = CircleTableMachine.TestCase
TestCircleTableMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
