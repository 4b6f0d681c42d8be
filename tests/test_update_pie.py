"""Direct tests for the pie-region maintenance helpers."""

import math
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.update_pie import _known_disprover, build_affected_map_vector
from repro.geometry.point import Point, dist
from repro.geometry.sector import sector_of

from .conftest import make_monitor, random_point


def _setup(variant="lu+pi", grid_cells=10):
    mon = make_monitor(variant, grid_cells=grid_cells)
    return mon


class TestRegistrationHysteresis:
    def test_registration_covers_at_least_the_pie(self, variant):
        mon = _setup(variant)
        mon.add_object(1, Point(300.0, 300.0))
        mon.add_query(50, Point(500.0, 500.0))
        st = mon.qt.get(50)
        for sector in range(6):
            assert st.pie_reg_radius[sector] >= st.d_cand[sector] or (
                math.isinf(st.pie_reg_radius[sector])
                and math.isinf(st.d_cand[sector])
            )

    def test_whole_sector_registration_kept_for_border_flips(self):
        """An empty sector's registration survives a transient candidate,
        avoiding thousands of cell updates per flip."""
        mon = _setup(grid_cells=16)
        mon.add_query(50, Point(500.0, 500.0))
        st = mon.qt.get(50)
        # every sector empty: registered unbounded
        assert all(math.isinf(r) for r in st.pie_reg_radius)
        # an object appears far away in some sector: candidate exists,
        # but the (large-pie) registration is kept as a superset
        mon.add_object(1, Point(980.0, 520.0))
        sector = sector_of(st.pos, Point(980.0, 520.0))
        assert st.cand[sector] == 1
        assert math.isinf(st.pie_reg_radius[sector])  # hysteresis kept it
        # the object leaves again: no re-registration storm needed
        before = set(st.pie_cells[sector])
        mon.remove_object(1)
        assert set(st.pie_cells[sector]) == before

    def test_small_pie_shrinks_registration(self):
        mon = _setup(grid_cells=16)
        mon.add_query(50, Point(500.0, 500.0))
        st = mon.qt.get(50)
        mon.add_object(1, Point(520.0, 505.0))  # very close candidate
        sector = sector_of(st.pos, Point(520.0, 505.0))
        assert not math.isinf(st.pie_reg_radius[sector])
        assert len(st.pie_cells[sector]) < 16  # tight registration

    def test_growth_is_exact(self, variant):
        mon = _setup(variant)
        mon.add_object(1, Point(510.0, 505.0))
        mon.add_object(2, Point(700.0, 560.0))
        mon.add_query(50, Point(500.0, 500.0))
        st = mon.qt.get(50)
        sector = sector_of(st.pos, Point(510.0, 505.0))
        # candidate leaves: the pie grows to the next object or to
        # unbounded; registration must grow with it.
        mon.remove_object(1)
        assert st.pie_reg_radius[sector] >= st.d_cand[sector] or math.isinf(
            st.d_cand[sector]
        )
        mon.validate()


class TestDetermineCertificate:
    """How a (re)installed candidate gets its certificate, driven through
    the single-object API (the batch of one)."""

    # o1 in sector 0 of q, o2 in sector 1 near the shared boundary ray:
    # both are candidates, and o2 is nearer to o1 than q is.
    O1, O1_MOVED, O2 = Point(600.0, 501.0), Point(595.0, 501.0), Point(530.0, 552.0)
    Q = Point(500.0, 500.0)

    def _two_candidates(self, variant):
        mon = _setup(variant)
        mon.add_object(1, self.O1)
        mon.add_object(2, self.O2)
        mon.add_query(50, self.Q)
        return mon, mon.qt.get(50), sector_of(self.Q, self.O1)

    def test_known_candidate_shortcut_avoids_search(self):
        mon, st, sector = self._two_candidates("lu+pi")
        assert st.cand[sector] == 1
        assert _known_disprover(
            mon, st, sector, 1, self.O1, dist(self.Q, self.O1)
        ) == (2, dist(self.O1, self.O2))
        searches = mon.stats.nn_searches
        mon.update_object(1, self.O1_MOVED)  # case 3: re-certified in place
        rec = mon.circ.record(50, sector)
        assert rec.cand == 1 and rec.nn == 2
        assert rec.radius == dist(self.O1_MOVED, self.O2)
        assert mon.stats.pie_case3 == 1
        assert mon.stats.nn_searches == searches  # no search needed
        mon.validate()

    def test_eager_mode_always_searches(self):
        mon, st, sector = self._two_candidates("uniform")
        assert _known_disprover(
            mon, st, sector, 1, self.O1, dist(self.Q, self.O1)
        ) is None
        searches = mon.stats.nn_searches
        mon.update_object(1, self.O1_MOVED)
        assert mon.circ.record(50, sector).nn == 2
        assert mon.stats.nn_searches == searches + 1
        mon.validate()

    def test_rnn_when_no_disprover(self, variant):
        mon = _setup(variant)
        mon.add_object(1, self.O1)
        mon.add_query(50, self.Q)
        sector = sector_of(self.Q, self.O1)
        mon.update_object(1, self.O1_MOVED)
        rec = mon.circ.record(50, sector)
        assert rec.nn is None and rec.radius == dist(self.Q, self.O1_MOVED)
        assert mon.rnn(50) == frozenset({1})
        mon.validate()


class TestResearchSector:
    def test_upper_bound_still_finds_the_bound_object(self, variant):
        """A re-search bounded by a real in-sector object's distance must
        return that object (or something nearer), never None."""
        mon = _setup(variant)
        mon.add_object(1, Point(700.0, 510.0))
        mon.add_query(50, Point(500.0, 500.0))
        st = mon.qt.get(50)
        sector = sector_of(st.pos, Point(700.0, 510.0))
        # The candidate moves outward within its sector: case 2, the
        # re-search bounded by its own new distance.
        moved = Point(800.0, 515.0)
        assert sector_of(st.pos, moved) == sector
        constrained = mon.stats.constrained_nn_searches
        mon.update_object(1, moved)
        assert mon.stats.pie_case2 == 1
        assert mon.stats.constrained_nn_searches == constrained + 1
        assert st.cand[sector] == 1
        assert st.d_cand[sector] == dist(st.pos, moved)
        mon.validate()

    def test_empty_sector_clears(self, variant):
        mon = _setup(variant)
        mon.add_object(1, Point(700.0, 510.0))
        mon.add_query(50, Point(500.0, 500.0))
        st = mon.qt.get(50)
        sector = sector_of(st.pos, Point(700.0, 510.0))
        assert mon.circ.record(50, sector) is not None
        mon.remove_object(1)
        assert st.cand[sector] is None
        assert math.isinf(st.d_cand[sector])
        assert mon.circ.record(50, sector) is None
        mon.validate()


# Endpoints reach past the data space on every side (they clamp to the
# border cells); ``None`` makes a move an insert or a delete.
_coords = st.floats(min_value=-250.0, max_value=1250.0, allow_nan=False, width=64)
_endpoints = st.one_of(st.none(), st.tuples(_coords, _coords).map(lambda t: Point(*t)))


class TestAffectedMap:
    @settings(max_examples=50, deadline=None)
    @given(moves=st.lists(st.tuples(st.integers(0, 400), _endpoints, _endpoints), max_size=40))
    def test_matches_per_endpoint_cell_lookup(self, moves):
        rng = random.Random(8)
        mon = _setup(grid_cells=10)
        for oid in range(60):
            mon.add_object(oid, random_point(rng))
        for qid in range(500, 506):
            mon.add_query(qid, random_point(rng))
        want: dict[int, set[int]] = {}
        for oid, *endpoints in moves:
            for pos in endpoints:
                if pos is not None:
                    for qid in mon.grid.cell_at(pos).pie_queries:
                        want.setdefault(qid, set()).add(oid)
        assert build_affected_map_vector(mon, moves) == want
