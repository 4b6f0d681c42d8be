"""Checks of the benchmark itself.  Run explicitly: ``python -m pytest bench -q``.

(Outside tier-1's ``testpaths``: the quick run below takes ~20 s.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import spec, streams  # noqa: E402
from bench.tracing import LayerTable  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """One ``--quick --trace`` run of all five workloads."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = run("--quick", "--trace", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["_path"] = str(out)
    doc["_stdout"] = proc.stdout
    return doc


def test_benchmark_json_restates_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bm = json.load(fh)
    assert set(bm) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bm["paths"] == ["bench"]
    assert bm["run_seconds"] == spec.DEFAULT_SECONDS
    assert [w["name"] for w in bm["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bm["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bm["per_layer"]] == list(spec.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in bm["end_to_end"])
    # ISSUE 11: no bound above 10 %.
    assert all(0 < m["bound"] <= 0.10 for m in bm["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bm["workloads"])


def test_names_and_units_are_well_formed():
    names = [*spec.WORKLOADS, *spec.UNITS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in spec.UNITS.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_stream_is_a_pure_function_of_seed():
    for wd in (spec.WORKLOADS["obj-move"].quick(), spec.WORKLOADS["churn"].quick()):
        a = streams.generate(wd, 7, 12)
        b = streams.generate(wd, 7, 12)
        c = streams.generate(wd, 8, 12)
        assert a.digest == b.digest != c.digest
    # obj-move-k2 replays obj-move's stream byte for byte.
    assert (
        streams.generate(spec.WORKLOADS["obj-move"].quick(), 7, 12).digest
        == streams.generate(spec.WORKLOADS["obj-move-k2"].quick(), 7, 12).digest
    )


def test_quick_run_reports_every_metric_with_a_unit(quick):
    assert set(quick["workloads"]) == set(spec.WORKLOADS)
    assert quick["failed"] == 0
    wanted = {m[0] for m in spec.END_TO_END} | {m[0] for m in spec.PER_LAYER} | {"failed_frac"}
    for name, metrics in quick["workloads"].items():
        if "skipped" in quick["runs"][name]:
            continue
        # Delivery latency is a metric of the served workload only.
        served = {"deliver_ms_p50"} if name != "serve-mixed" else set()
        assert set(metrics) == wanted - served, name
        for metric, row in metrics.items():
            assert row["unit"] == spec.UNITS[metric]
            assert f"{metric} " in quick["_stdout"]
        assert metrics["failed_frac"]["value"] == 0.0
        raw = quick["runs"][name]["untraced"]["raw"]
        for metric, *_ in spec.END_TO_END:
            if metric not in served:
                assert metrics[metric]["value"] > 0.0, (name, metric)
                assert metric == "peak_rss_mb" or raw[metric] > 0.0, (name, metric)
    host = quick["host"]
    assert host["nproc"] and host["python"] and host["numpy"]


def test_layers_load_and_bypass_as_documented(quick):
    w = quick["workloads"]
    assert w["obj-move"]["init.calls"]["value"] == 0.0
    assert w["query-move"]["init.calls"]["value"] > 0.0
    assert w["churn"]["grid.move_self_ms"]["value"] > 0.0
    assert w["serve-mixed"]["proto.bytes_per_update"]["value"] > 0.0
    assert w["obj-move"]["proto.bytes_per_update"]["value"] == 0.0
    if "skipped" not in quick["runs"]["obj-move-k2"]:
        assert w["obj-move-k2"]["shard.scatter_bytes"]["value"] > 0.0
        assert quick["runs"]["obj-move-k2"]["event_sha_vs_obj_move"]["equal"]
    for name in ("obj-move", "query-move", "churn"):
        assert w[name]["trace.unattributed_frac"]["value"] < 0.15


@pytest.mark.parametrize("name", ["obj-move", "query-move", "churn"])
def test_layer_self_times_sum_to_the_root(quick, name):
    with open(os.path.join(HERE, "out", f"trace-{name}.json"), encoding="utf-8") as fh:
        dump = json.load(fh)
    starts = [t * 1e-6 for t in dump["start_us"]]
    ends = [s + d * 1e-6 for s, d in zip(starts, dump["dur_us"])]
    spans = list(zip(dump["name"], dump["parent"], dump["tick"], starts, ends))
    table = LayerTable(dump["names"], spans)
    assert table.root_s > 0.0
    assert sum(table.layers().values()) == pytest.approx(table.root_s, rel=0.02)
    roots = [s for s in spans if s[1] < 0]
    assert {dump["names"][s[0]] for s in roots} == {"tick"}


def test_every_late_delivery_is_a_failed_one():
    from repro.serve.protocol import ErrorReply, TickAck

    from bench import wire

    limit = spec.SERVE_DELIVER_LIMIT_S
    n = 72
    due = [i * spec.SERVE_PERIOD_S for i in range(n)]
    replies = [TickAck(tick=i, events=0) for i in range(n)]
    # 60 late deliveries, then the backlog drains: all 60 count.
    ack_at = [d + (limit + 0.05 if i < 60 else 0.03) for i, d in enumerate(due)]
    latencies, failed = wire.deliveries(due, ack_at, replies, {})
    assert len(latencies) == n and failed == 60
    # Shed, refused, never acked, announced but never delivered: no latency.
    replies[0] = TickAck(tick=0, shed=3)
    replies[1] = ErrorReply(code="tick_failed", detail="")
    replies[2], ack_at[2] = None, None
    replies[3] = TickAck(tick=3, events=5)
    latencies, failed = wire.deliveries(due, ack_at, replies, {})
    assert len(latencies) == n - 4 and failed == 4 + 56
    # An event frame is the delivery when the tick produced events.
    latencies, _ = wire.deliveries(due, ack_at, replies, {3: due[3] + 0.02})
    assert dict(latencies)[3] == pytest.approx(0.02)


def test_wrong_oracle_input_fails_the_command(tmp_path):
    proc = run("--quick", "--workload", "obj-move", "--corrupt-oracle")
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_driver_contract_for_one_workload():
    for trace, table in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        proc = run("--quick", "--workload", "churn", "--seed", "2", "--seconds", "1",
                   "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert list(last["metrics"]) == [m[0] for m in table]
        for metric, row in last["metrics"].items():
            assert set(row) == {"value", "unit"} and row["unit"] == spec.UNITS[metric]


def test_compare_verdicts(quick, tmp_path):
    same = run("compare", quick["_path"], quick["_path"])
    assert same.returncode == 0 and "0 regressed" in same.stdout
    worse = {k: v for k, v in quick.items() if not k.startswith("_")}
    worse = json.loads(json.dumps(worse))
    worse["workloads"]["churn"]["tick_ms_p50"]["value"] *= 1.5
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse), encoding="utf-8")
    proc = run("compare", quick["_path"], str(path))
    assert proc.returncode == 1
    row = next(line for line in proc.stdout.splitlines()
               if line.startswith("churn") and "tick_ms_p50" in line)
    assert row.endswith("regressed") and "+50.00%" in row


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "obj-move", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
