"""InvariantAuditor: cadence, divergence detection, repair, escalation."""

import random

import pytest

from repro.robustness.audit import AuditPolicy, InvariantAuditor

from .conftest import make_monitor
from .test_exactness import load_batch


def _audited_monitor(variant, seed=0, n_objects=40, n_queries=6, **policy_kwargs):
    mon = make_monitor(variant)
    mon.process(load_batch(random.Random(seed), n_objects, n_queries))
    qids = list(range(10_000, 10_000 + n_queries))
    policy = AuditPolicy(**{"seed": seed, **policy_kwargs})
    return mon, InvariantAuditor(mon, policy), qids


class TestCadence:
    def test_after_batch_runs_on_interval(self, variant):
        mon, auditor, _ = _audited_monitor(variant, interval=3)
        reports = [auditor.after_batch() for _ in range(9)]
        fired = [r for r in reports if r is not None]
        assert len(fired) == 3
        assert [r.timestamp for r in fired] == [3, 6, 9]
        assert mon.stats.audit_runs == 3

    def test_budget_caps_checked_queries(self, variant):
        mon, auditor, qids = _audited_monitor(variant, sample_queries=2)
        report = auditor.audit()
        assert len(report.checked) == 2
        assert set(report.checked) <= set(qids)
        assert mon.stats.audit_queries_checked == 2

    def test_sampling_is_deterministic(self, variant):
        _, auditor_a, _ = _audited_monitor(variant, sample_queries=3, seed=5)
        _, auditor_b, _ = _audited_monitor(variant, sample_queries=3, seed=5)
        assert auditor_a.audit().checked == auditor_b.audit().checked


class TestCleanMonitor:
    def test_clean_audit(self, variant):
        mon, auditor, _ = _audited_monitor(variant)
        report = auditor.audit(deep=True)
        assert report.clean
        assert report.divergent == () and not report.escalated
        assert report.structural_error is None
        assert mon.stats.audit_divergences == 0
        assert mon.stats.audit_escalations == 0


class TestScopedRepair:
    def _corrupt_result(self, mon, qid):
        """Plant a bogus RNN result (simulated missed bookkeeping).

        The planted oid does not exist in the grid, so the oracle can
        never agree with it — the divergence is unconditional.
        """
        bogus = 987_654
        mon._results[qid].add(bogus)
        mon._rnn_counts[qid][bogus] = 1
        return bogus

    def test_divergence_detected_and_repaired_in_scope(self, variant):
        mon, auditor, qids = _audited_monitor(variant, sample_queries=10)
        qid = qids[0]
        before_recomputations = mon.stats.query_recomputations
        self._corrupt_result(mon, qid)
        report = auditor.audit(deep=False)
        assert report.divergent == (qid,)
        assert report.repaired == (qid,)
        assert not report.escalated
        assert mon.stats.audit_divergences == 1
        assert mon.stats.audit_repairs == 1
        # Scoped: exactly one query was recomputed, not all of them.
        assert mon.stats.query_recomputations == before_recomputations + 1
        mon.validate()

    def test_structural_error_escalates_to_rebuild(self, variant):
        mon, auditor, qids = _audited_monitor(variant)
        qid = qids[0]
        # Corrupt pie bookkeeping in a way results-sampling cannot see:
        # forget one registered pie cell behind the monitor's back.
        st = mon.qt.get(qid)
        for sector in range(6):
            if st.pie_cells[sector]:
                cell = next(iter(st.pie_cells[sector]))
                cell.remove_pie_query(qid, sector)
                break
        report = auditor.audit(deep=True)
        assert report.structural_error is not None
        assert report.escalated
        assert mon.stats.audit_escalations == 1
        # The rebuild healed the structure.
        mon.validate()
        assert auditor.audit(deep=True).clean

    def test_failed_scoped_repair_escalates(self, variant, monkeypatch):
        mon, auditor, qids = _audited_monitor(variant, sample_queries=10)
        self._corrupt_result(mon, qids[0])
        # Make the scoped repair a no-op so the auditor must escalate;
        # rebuild() is restored to the real thing.
        real_update = mon.update_query
        monkeypatch.setattr(mon, "update_query", lambda qid, pos, **kw: None)
        report = auditor.audit(deep=False)
        assert report.divergent and not report.repaired
        assert report.escalated
        monkeypatch.setattr(mon, "update_query", real_update)
        assert mon.stats.audit_escalations == 1

    def test_consecutive_dirty_audits_escalate(self, variant):
        mon, auditor, qids = _audited_monitor(
            variant, sample_queries=10, escalate_after=2, deep_every=0
        )
        self._corrupt_result(mon, qids[0])
        first = auditor.audit()
        assert first.divergent and not first.escalated
        self._corrupt_result(mon, qids[1])
        second = auditor.audit()
        assert second.divergent and second.escalated
        mon.validate()


class TestSummary:
    def test_summary_totals(self, variant):
        mon, auditor, qids = _audited_monitor(variant, interval=1, sample_queries=10)
        for _ in range(3):
            auditor.after_batch()
        s = auditor.summary()
        assert s["audits"] == 3
        assert s["divergences"] == 0 and s["escalations"] == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AuditPolicy(interval=0)
        with pytest.raises(ValueError):
            AuditPolicy(sample_queries=0)
        with pytest.raises(ValueError):
            AuditPolicy(escalate_after=0)
