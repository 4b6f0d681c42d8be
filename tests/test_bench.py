"""Smoke tests for the benchmark harness (fast, tiny workloads)."""

import json

import pytest

from repro.bench.experiments import (
    ablation_furtree,
    ablation_init,
    table1_parameters,
)
from repro.bench.harness import SweepResult, sweep
from repro.bench.reporting import format_speedups, format_sweep, sweep_to_markdown
from repro.bench.simulation import (
    ALL_METHODS,
    METHOD_LU_ONLY,
    METHOD_LU_PI,
    METHOD_TPL_FUR,
    METHOD_UNIFORM,
    make_target,
    run_method,
    run_resilience,
)
from repro.core.baseline import TPLFURBaseline
from repro.core.config import MonitorConfig
from repro.core.monitor import CRNNMonitor
from repro.mobility.workload import WorkloadSpec
from repro.robustness.audit import AuditPolicy
from repro.robustness.faults import FaultSpec

TINY = WorkloadSpec(
    num_objects=60, num_queries=6, object_mobility=0.2, query_mobility=0.1,
    timestamps=3, seed=1,
)


class TestMakeTarget:
    def test_all_methods_instantiable(self):
        for method in ALL_METHODS:
            target = make_target(method, grid_cells=8)
            if method == METHOD_TPL_FUR:
                assert isinstance(target, TPLFURBaseline)
            else:
                assert isinstance(target, CRNNMonitor)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            make_target("nonsense")

    def test_config_override_must_match(self):
        with pytest.raises(ValueError):
            make_target(METHOD_LU_PI, config=MonitorConfig.uniform())

    def test_config_override_applied(self):
        cfg = MonitorConfig.lu_pi(partial_insert_threshold=0.5, grid_cells=9)
        target = make_target(METHOD_LU_PI, config=cfg)
        assert target.config.partial_insert_threshold == 0.5


class TestRunMethod:
    def test_produces_timings_and_stats(self):
        result = run_method(METHOD_LU_PI, TINY, grid_cells=8)
        assert len(result.per_timestamp_seconds) == TINY.timestamps
        assert result.avg_update_seconds >= 0.0
        assert result.total_seconds == pytest.approx(
            sum(result.per_timestamp_seconds)
        )
        assert result.stats["result_changes"] >= 0

    def test_same_spec_same_workload(self):
        """All methods must see identical update streams for a spec."""
        a = run_method(METHOD_LU_PI, TINY, grid_cells=8)
        b = run_method(METHOD_UNIFORM, TINY, grid_cells=8)
        # identical streams -> identical result-change counts
        assert a.stats["result_changes"] == b.stats["result_changes"]

    def test_empty_result_average(self):
        from repro.bench.simulation import SimulationResult

        r = SimulationResult(method="x", spec=TINY)
        assert r.avg_update_seconds == 0.0

    def test_faulted_run(self):
        faults = FaultSpec.mild(seed=4)
        result = run_method(
            METHOD_LU_PI, TINY, grid_cells=8, faults=faults, guard_policy="drop"
        )
        # Reorder deferral may flush one trailing batch.
        assert len(result.per_timestamp_seconds) in (TINY.timestamps, TINY.timestamps + 1)

    def test_faults_rejected_for_tpl_baseline(self):
        with pytest.raises(ValueError):
            run_method(METHOD_TPL_FUR, TINY, faults=FaultSpec.mild())
        with pytest.raises(ValueError):
            run_method(METHOD_TPL_FUR, TINY, guard_policy="drop")


class TestRunResilience:
    def test_survives_harsh_faults(self):
        # Every variant under both repairing guard policies, audited after
        # every batch: no audited timestamp is left unrepaired.
        for method in (METHOD_UNIFORM, METHOD_LU_ONLY, METHOD_LU_PI):
            for guard_policy in ("drop", "clamp"):
                result = run_resilience(
                    method, TINY, FaultSpec.harsh(seed=5), grid_cells=8,
                    guard_policy=guard_policy, audit=AuditPolicy(interval=1),
                )
                assert result.survived, (method, guard_policy)
                assert result.final_results_match and result.final_validate_clean
                assert result.injected, "harsh schedule must inject something"
                assert result.audits and result.unrepaired_mismatches == 0

    def test_tpl_baseline_rejected(self):
        with pytest.raises(ValueError):
            run_resilience(METHOD_TPL_FUR, TINY, FaultSpec.mild())


class TestSweep:
    def test_sweep_and_reporting(self):
        points = [(n, WorkloadSpec(num_objects=n, num_queries=4, timestamps=2, seed=2))
                  for n in (30, 60)]
        result = sweep(
            "smoke", "tiny sweep", "objects", points,
            (METHOD_LU_ONLY, METHOD_LU_PI), grid_cells=8,
        )
        assert result.x_values == [30, 60]
        assert set(result.series) == {METHOD_LU_ONLY, METHOD_LU_PI}
        assert all(len(s) == 2 for s in result.series.values())
        text = format_sweep(result)
        assert "smoke" in text and "LU+PI" in text
        md = sweep_to_markdown(result)
        assert md.startswith("**smoke")
        assert "| objects |" in md.replace("  ", " ") or "objects" in md

    def test_speedup(self):
        r = SweepResult(name="s", title="t", x_label="x")
        r.x_values = [1, 2]
        r.series = {"slow": [2.0, 4.0], "fast": [1.0, 1.0]}
        assert r.speedup("slow", "fast") == [2.0, 4.0]
        text = format_speedups(r, "slow", "fast")
        assert "2.0x" in text


class TestExperimentDefinitions:
    def test_table1(self):
        table = table1_parameters()
        assert table["grid"] == "128x128"
        assert len(table["# of objects"]) == 6
        assert len(table["Object mobility (%)"]) == 5

    def test_ablation_init_returns_both_timings(self):
        timing = ablation_init(quick=True, queries=8)
        assert set(timing) == {"initCRNN", "six separate searches"}
        assert all(v > 0 for v in timing.values())

    def test_ablation_furtree_quick(self):
        timing = ablation_furtree(quick=True, updates=500)
        assert set(timing) == {"FUR-tree bottom-up", "R-tree delete+insert"}
        # bottom-up must beat delete+insert on a local-move workload
        assert timing["FUR-tree bottom-up"] < timing["R-tree delete+insert"]


class TestRunAllCli:
    def test_quick_single_experiment(self, tmp_path, capsys):
        from repro.bench.run_all import main

        json_path = tmp_path / "out.json"
        md_path = tmp_path / "out.md"
        rc = main([
            "--quick", "--only", "ablD",
            "--json", str(json_path), "--markdown", str(md_path),
        ])
        assert rc == 0
        blob = json.loads(json_path.read_text())
        assert "ablD" in blob and "table1" in blob
        assert "ablD" in md_path.read_text()
        out = capsys.readouterr().out
        assert "Table 1" in out
