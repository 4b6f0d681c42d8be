"""Metrics registry, Prometheus exposition validity, snapshot schema."""

from __future__ import annotations

import io
import json
import math
import random
import urllib.error
import urllib.request

import pytest

from repro.core.events import ObjectUpdate
from repro.core.monitor import CRNNMonitor
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.obs.console import ConsoleSummary
from repro.obs.export import (
    ObsHTTPServer,
    PrometheusParseError,
    SnapshotSchemaError,
    parse_prometheus_text,
    validate_snapshot,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


def _live_monitor(ticks: int = 4) -> CRNNMonitor:
    rng = random.Random(3)
    monitor = CRNNMonitor.with_observability(ObsConfig())
    for oid in range(80):
        monitor.add_object(oid, Point(rng.uniform(0, 50), rng.uniform(0, 50)))
    for qid in range(500, 505):
        monitor.add_query(qid, Point(rng.uniform(0, 50), rng.uniform(0, 50)))
    monitor.drain_events()
    for _ in range(ticks):
        monitor.process([
            ObjectUpdate(rng.randrange(80),
                         Point(rng.uniform(0, 50), rng.uniform(0, 50)))
            for _ in range(15)
        ])
    return monitor


class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help a").inc(3)
        reg.gauge("b").set(-2.5)
        snap = reg.snapshot()
        assert snap["counters"]["a_total"] == 3
        assert snap["gauges"]["b"] == -2.5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        fam = reg.counter("ops_total", labelnames=("op",))
        fam.labels("a").inc()
        fam.labels("b").inc(2)
        snap = reg.snapshot()["counters"]
        assert snap['ops_total{op="a"}'] == 1
        assert snap['ops_total{op="b"}'] == 2

    def test_reregistration_same_shape_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_reregistration_different_shape_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("op",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))


class TestHistogram:
    def test_quantiles_interpolate(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.5)
        # p50 rank=2 lands in the (1,2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        # Everything fits under the largest bound.
        assert h.quantile(1.0) <= 4.0

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram(bounds=(1.0,)).quantile(0.5))

    def test_inf_bucket_clamps_to_largest_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.99) == 2.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_snapshot_has_percentiles_and_buckets(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert set(snap) >= {"count", "sum", "buckets", "p50", "p95", "p99"}
        assert snap["buckets"]["+Inf"] == 0


class TestPrometheusExposition:
    def test_render_parses_cleanly(self):
        monitor = _live_monitor()
        families = parse_prometheus_text(monitor.obs.render_prometheus())
        assert "crnn_ops_total" in families
        assert "crnn_batch_seconds" in families
        assert "crnn_objects" in families
        # Histogram exposition: cumulative buckets ending at +Inf == count.
        samples = families["crnn_batch_seconds"]["samples"]
        count = samples["crnn_batch_seconds_count"]
        inf_bucket = next(
            v for key, v in samples.items()
            if key.startswith("crnn_batch_seconds_bucket") and 'le="+Inf"' in key
        )
        assert inf_bucket == count == 4

    def test_ops_counter_matches_stats(self):
        monitor = _live_monitor()
        families = parse_prometheus_text(monitor.obs.render_prometheus())
        samples = families["crnn_ops_total"]["samples"]
        assert samples['crnn_ops_total{op="nn_searches"}'] == (
            monitor.stats.nn_searches
        )

    def test_parser_rejects_garbage(self):
        with pytest.raises(PrometheusParseError):
            parse_prometheus_text("# TYPE x counter\nx{unterminated 1\n")
        with pytest.raises(PrometheusParseError):
            parse_prometheus_text("no_type_declared 1\n")
        with pytest.raises(PrometheusParseError):
            parse_prometheus_text("# TYPE x counter\nx 1\nx 2\n")  # duplicate

    def test_label_escaping_roundtrips(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", labelnames=("p",)).labels('a"b\\c\nd').inc()
        families = parse_prometheus_text(render_prometheus(reg))
        assert list(families["esc_total"]["samples"].values()) == [1]


class TestSnapshotSchema:
    def test_live_snapshot_validates(self):
        snap = _live_monitor().obs.snapshot()
        validate_snapshot(snap)  # must not raise
        json.dumps(snap)  # and must be JSON-serializable

    def test_malformed_snapshots_rejected(self):
        snap = _live_monitor().obs.snapshot()
        for mutate in (
            lambda s: s.pop("schema"),
            lambda s: s.__setitem__("version", 99),
            lambda s: s["metrics"].pop("histograms"),
            lambda s: next(iter(s["metrics"]["histograms"].values())).pop("p50"),
        ):
            bad = json.loads(json.dumps(snap))
            mutate(bad)
            with pytest.raises(SnapshotSchemaError):
                validate_snapshot(bad)


class TestHTTPEndpoint:
    def test_scrape_metrics_and_snapshot(self):
        monitor = _live_monitor()
        with ObsHTTPServer(monitor) as server:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                families = parse_prometheus_text(resp.read().decode())
            assert "crnn_ops_total" in families
            with urllib.request.urlopen(f"{server.url}/snapshot.json", timeout=10) as resp:
                validate_snapshot(json.loads(resp.read().decode()))
            with urllib.request.urlopen(f"{server.url}/healthz", timeout=10) as resp:
                assert resp.status == 200

    def test_unknown_path_is_404(self):
        monitor = _live_monitor(ticks=1)
        with ObsHTTPServer(monitor) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{server.url}/nope", timeout=10)
            assert exc.value.code == 404


class TestExpositionHardening:
    """Hostile label values and malformed text the strict parser must
    handle (render → parse must round-trip byte-losslessly)."""

    @pytest.mark.parametrize("hostile", [
        'back\\slash', 'quo"te', 'new\nline', 'clo}se', 'com,ma',
        'a"b\\c\nd}e,f', '', '{"json": "blob"}',
    ])
    def test_hostile_label_values_roundtrip(self, hostile):
        reg = MetricsRegistry()
        reg.counter("hostile_total", labelnames=("p",)).labels(hostile).inc(3)
        text = render_prometheus(reg)
        families = parse_prometheus_text(text)
        assert list(families["hostile_total"]["samples"].values()) == [3]
        # Rendering the parse-keyed series again must reproduce the line.
        (series_key,) = families["hostile_total"]["samples"]
        assert f"{series_key} 3" in text

    def test_parser_rejects_duplicate_label_keys(self):
        with pytest.raises(PrometheusParseError, match="duplicate label key"):
            parse_prometheus_text('# TYPE x counter\nx{a="1",a="2"} 1\n')

    def test_parser_rejects_malformed_label_blocks(self):
        for bad in (
            'x{a="1" b="2"} 1',      # missing comma
            'x{a=1} 1',              # unquoted value
            'x{a="1"', 'x{a="1"} ',  # truncated
            'x{a="unclosed} 1',      # quote never closes
            'x{1a="v"} 1',           # illegal label name
        ):
            with pytest.raises(PrometheusParseError):
                parse_prometheus_text(f"# TYPE x counter\n{bad}\n")

    def test_collected_family_rejects_duplicate_series(self):
        from repro.obs.metrics import CollectedFamily

        with pytest.raises(ValueError, match="duplicate series"):
            CollectedFamily("dup_total", "counter", "h",
                            [({"a": "1"}, 1.0), ({"a": "1"}, 2.0)])

    def test_collected_family_rejects_invalid_label_names(self):
        from repro.obs.metrics import CollectedFamily

        with pytest.raises(ValueError, match="invalid label name"):
            CollectedFamily("bad_total", "counter", "h", [({"0day": "v"}, 1.0)])

    def test_collected_family_escaped_values_distinct_series(self):
        from repro.obs.metrics import CollectedFamily

        # Values that collide only if escaping is done wrong.
        CollectedFamily("esc_total", "counter", "h",
                        [({"p": 'a"b'}, 1.0), ({"p": "a\\\"b"}, 2.0)])


class TestConsoleSummary:
    def test_tick_prints_one_status_line(self):
        stream = io.StringIO()
        line = ConsoleSummary(_live_monitor(), interval=0.0, stream=stream).tick()
        assert line.startswith("[crnn] batches=")
        assert "objs=80" in line and "qrs=5" in line and "upd/s" in line
        assert stream.getvalue() == line + "\n"
