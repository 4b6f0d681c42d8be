"""``monitor.explain(qid)``: per-query diagnostics and health tracking."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import LU_PI, UNIFORM, MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.core.oracle import brute_force_rnn
from repro.geometry.point import Point
from repro.geometry.sector import NUM_SECTORS
from repro.obs.config import ObsConfig

QID = 9000


def _workload(monitor: CRNNMonitor, ticks: int = 5, seed: int = 11) -> None:
    rng = random.Random(seed)
    for oid in range(100):
        monitor.add_object(oid, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
    for qid in (QID, QID + 1, QID + 2):
        monitor.add_query(qid, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
    monitor.drain_events()
    for _ in range(ticks):
        monitor.process([
            ObjectUpdate(rng.randrange(100),
                         Point(rng.uniform(0, 100), rng.uniform(0, 100)))
            for _ in range(20)
        ])


class TestExplainEnabled:
    @pytest.fixture()
    def monitor(self) -> CRNNMonitor:
        monitor = CRNNMonitor.with_observability(ObsConfig())
        _workload(monitor)
        return monitor

    def test_report_is_complete(self, monitor):
        report = monitor.explain(QID)
        assert report.qid == QID
        assert report.diagnostics_enabled
        assert len(report.sectors) == NUM_SECTORS
        assert report.results == tuple(sorted(monitor.rnn(QID)))
        st = monitor.qt.get(QID)
        assert report.pos == (st.pos[0], st.pos[1])
        assert report.pie_cells_total == sum(
            s.pie_cell_count for s in report.sectors
        )
        assert 0 <= report.rnn_sectors <= report.bounded_sectors <= NUM_SECTORS
        # Health counters attached and consistent.  (Registration itself
        # is not a recomputation, so the floor is 0.)
        assert report.recomputations is not None and report.recomputations >= 0
        assert report.certificate_recomputes is not None
        assert report.staleness_batches is not None
        assert report.staleness_batches >= 0
        assert sum(report.recompute_causes.values()) == (
            report.recomputations + report.certificate_recomputes
        )

    def test_sector_candidates_match_query_state(self, monitor):
        report = monitor.explain(QID)
        st = monitor.qt.get(QID)
        for s in report.sectors:
            assert s.candidate == st.cand[s.sector]
            assert s.d_cand == st.d_cand[s.sector]
            if s.candidate is None:
                assert s.circ_radius is None and s.slack is None
            else:
                assert s.circ_radius is not None
                assert s.slack == pytest.approx(s.d_cand - s.circ_radius)
                assert s.slack >= -1e-9

    def test_rnn_sectors_cover_results(self, monitor):
        report = monitor.explain(QID)
        # Every result object is the candidate of some is_rnn sector.
        rnn_candidates = {s.candidate for s in report.sectors if s.is_rnn}
        assert set(report.results) <= rnn_candidates
        # And the results agree with the oracle.
        st = monitor.qt.get(QID)
        assert set(report.results) == brute_force_rnn(
            monitor.grid.positions, st.pos, st.exclude
        )

    def test_to_dict_is_json_safe(self, monitor):
        payload = json.dumps(monitor.explain(QID).to_dict())
        assert json.loads(payload)["qid"] == QID

    def test_expensive_sectors_ranked(self, monitor):
        report = monitor.explain(QID)
        ranked = report.expensive_sectors
        counts = {s.sector: s.pie_cell_count for s in report.sectors}
        assert list(ranked) == sorted(
            (s for s in ranked), key=lambda sec: -counts[sec]
        )
        assert all(counts[sec] > 0 for sec in ranked)

    def test_unknown_query_raises_keyerror(self, monitor):
        with pytest.raises(KeyError):
            monitor.explain(123456)

    def test_health_survives_query_move(self, monitor):
        before = monitor.explain(QID)
        monitor.process([QueryUpdate(QID, Point(50.0, 50.0))])
        after = monitor.explain(QID)
        # update_query internally removes+re-adds the query; the health
        # history must survive and record the move as a recomputation.
        assert after.recomputations >= before.recomputations + 1
        assert after.recompute_causes.get("query_moved", 0) >= 1
        # The batch clock ticks when process() finishes, so a recompute
        # inside the just-completed batch reads as staleness 1.
        assert after.staleness_batches == 1
        assert after.last_recompute_cause == "query_moved"

    def test_health_forgotten_on_explicit_removal(self, monitor):
        monitor.remove_query(QID + 2)
        assert monitor.obs.health.get(QID + 2) is None

    def test_lazy_deferrals_recorded_for_lupi(self, monitor):
        assert monitor.config.variant == LU_PI
        total = sum(
            h.lazy_deferrals for h in monitor.obs.health.all().values()
        )
        assert total == monitor.stats.circ_lazy_radius_updates
        assert total > 0


class TestExplainDisabled:
    def test_structural_report_without_health(self):
        monitor = CRNNMonitor()  # observability off
        _workload(monitor, ticks=2)
        report = monitor.explain(QID)
        assert not report.diagnostics_enabled
        assert len(report.sectors) == NUM_SECTORS
        assert report.lazy_deferrals is None
        assert report.recomputations is None
        assert report.staleness_batches is None
        json.dumps(report.to_dict())

    def test_diagnostics_off_but_tracing_on(self):
        monitor = CRNNMonitor.with_observability(ObsConfig(diagnostics=False))
        _workload(monitor, ticks=2)
        report = monitor.explain(QID)
        assert not report.diagnostics_enabled
        assert monitor.obs.health is None
        assert len(monitor.obs.sink.spans()) > 0


class TestHealthAcrossVariants:
    @pytest.mark.parametrize("variant", [UNIFORM, LU_PI])
    def test_certificate_recomputes_attributed(self, variant):
        monitor = CRNNMonitor(MonitorConfig(
            variant=variant, observability=ObsConfig(),
        ))
        _workload(monitor, ticks=6)
        total = sum(
            h.certificate_recomputes for h in monitor.obs.health.all().values()
        )
        assert total == monitor.stats.circ_nn_searches_triggered

    @pytest.mark.parametrize("shards", [None, 2])
    def test_result_counts_are_the_emitted_events(self, shards):
        # Query moves (stripe-crossing ones too, with two shards) change
        # results through silent internal transitions; a query's health
        # gains / losses must count only the events handed out.
        from repro.shard import ShardedCRNNMonitor

        cfg = MonitorConfig(variant=LU_PI, observability=ObsConfig())
        monitor = (
            CRNNMonitor(cfg) if shards is None
            else ShardedCRNNMonitor(cfg, shards=shards, executor="serial")
        )
        rng = random.Random(3)
        qids = (QID, QID + 1, QID + 2)
        events = []
        for oid in range(150):
            monitor.add_object(oid, Point(rng.uniform(0, 10000), rng.uniform(0, 10000)))
        for qid in qids:
            monitor.add_query(qid, Point(rng.uniform(0, 10000), rng.uniform(0, 10000)))
        events += monitor.drain_events()
        for _ in range(8):
            monitor.process(
                [QueryUpdate(qid, Point(rng.uniform(0, 10000), rng.uniform(0, 10000)))
                 for qid in qids]
                + [ObjectUpdate(rng.randrange(150),
                                Point(rng.uniform(0, 10000), rng.uniform(0, 10000)))
                   for _ in range(10)]
            )
            monitor.update_query(
                QID, Point(rng.uniform(0, 10000), rng.uniform(0, 10000))
            )
            events += monitor.drain_events()
        for qid in qids:
            health = monitor.obs.health.get(qid)
            assert health.result_gains == sum(e.gained for e in events if e.qid == qid)
            assert health.result_losses == sum(
                not e.gained for e in events if e.qid == qid
            )
