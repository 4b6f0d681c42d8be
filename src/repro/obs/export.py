"""Exporters: Prometheus scrape endpoint, text-format parser, snapshot schema.

The HTTP endpoint is a stdlib ``http.server`` on a daemon thread — no
dependency, good enough for a scrape every few seconds:

* ``GET /metrics`` — Prometheus text exposition (v0.0.4);
* ``GET /snapshot.json`` — the JSON snapshot (metrics + query health);
* ``GET /healthz`` — liveness probe (object/query counts).

:func:`parse_prometheus_text` is a strict parser for the exposition
format; it exists so tests can *prove* the rendered text is
well-formed instead of eyeballing it, and doubles as a tiny client for
the endpoint.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import CRNNMonitor

__all__ = [
    "ObsHTTPServer",
    "parse_prometheus_text",
    "PrometheusParseError",
    "validate_snapshot",
    "SnapshotSchemaError",
]

CONTENT_TYPE_PROM = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TS_RE = re.compile(r"^-?\d+$")
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class PrometheusParseError(ValueError):
    """The text is not valid Prometheus exposition format."""


def _parse_labels(raw: str, lineno: int) -> dict[str, str]:
    """Parse one label block's interior into ``{name: raw_value}``.

    Values keep their wire escaping (``\\\\``, ``\\"``, ``\\n``) so
    series keys round-trip byte-for-byte against the renderer's
    ``_series_key`` output.  Duplicate label keys — which Prometheus
    forbids and ``dict()`` would silently collapse — raise.
    """
    labels: dict[str, str] = {}
    pos, end = 0, len(raw)
    while pos < end:
        m = _LABEL_RE.match(raw, pos)
        if m is None:
            raise PrometheusParseError(f"line {lineno}: malformed labels: {raw!r}")
        key = m.group(1)
        if key in labels:
            raise PrometheusParseError(
                f"line {lineno}: duplicate label key {key!r}"
            )
        labels[key] = m.group(2)
        pos = m.end()
        if pos < end:
            if raw[pos] != ",":
                raise PrometheusParseError(
                    f"line {lineno}: malformed labels: {raw!r}"
                )
            pos += 1  # tolerate a trailing comma, as Prometheus does
    return labels


def _split_sample(line: str, lineno: int) -> tuple[str, dict[str, str], str]:
    """Split one sample line into ``(name, labels, value_text)``.

    The label block is scanned quote- and escape-aware, so a ``}`` (or
    anything else) inside a quoted label value cannot truncate it — the
    failure mode of the naive ``\\{[^}]*\\}`` regex this replaced.
    """
    m = _NAME_RE.match(line)
    if m is None:
        raise PrometheusParseError(f"line {lineno}: malformed sample: {line!r}")
    name = m.group(0)
    pos = m.end()
    labels: dict[str, str] = {}
    if pos < len(line) and line[pos] == "{":
        scan, in_quotes, escaped = pos + 1, False, False
        while scan < len(line):
            ch = line[scan]
            if escaped:
                escaped = False
            elif in_quotes and ch == "\\":
                escaped = True
            elif ch == '"':
                in_quotes = not in_quotes
            elif ch == "}" and not in_quotes:
                break
            scan += 1
        else:
            raise PrometheusParseError(
                f"line {lineno}: unterminated label block: {line!r}"
            )
        labels = _parse_labels(line[pos + 1 : scan], lineno)
        pos = scan + 1
    rest = line[pos:]
    if not rest[:1].isspace():
        raise PrometheusParseError(f"line {lineno}: malformed sample: {line!r}")
    parts = rest.split()
    if len(parts) == 2:
        if not _TS_RE.match(parts[1]):
            raise PrometheusParseError(
                f"line {lineno}: malformed timestamp: {parts[1]!r}"
            )
    elif len(parts) != 1:
        raise PrometheusParseError(f"line {lineno}: malformed sample: {line!r}")
    return name, labels, parts[0]


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    try:
        return float(raw)
    except ValueError as exc:
        raise PrometheusParseError(f"bad sample value {raw!r}") from exc


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` maps the full series key (name + sorted label string,
    label values kept in their escaped wire form) to the parsed float
    value.  Raises :class:`PrometheusParseError` on any malformed line,
    unknown TYPE, samples preceding their TYPE line, duplicate series,
    or a sample repeating a label key.  Label values may contain any
    escaped content — including ``}`` and commas — without confusing
    the scanner.
    """
    families: dict[str, dict[str, Any]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise PrometheusParseError(f"line {lineno}: malformed HELP")
            fam = families.setdefault(
                parts[2], {"type": None, "help": None, "samples": {}}
            )
            fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in _TYPES:
                raise PrometheusParseError(f"line {lineno}: malformed TYPE: {line!r}")
            fam = families.setdefault(
                parts[2], {"type": None, "help": None, "samples": {}}
            )
            if fam["type"] is not None:
                raise PrometheusParseError(f"line {lineno}: duplicate TYPE for {parts[2]}")
            fam["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        name, labels, value_text = _split_sample(line, lineno)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        fam = families.get(base)
        if fam is None or fam["type"] is None:
            raise PrometheusParseError(
                f"line {lineno}: sample {name!r} precedes its TYPE declaration"
            )
        key = name
        if labels:
            key += "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
        if key in fam["samples"]:
            raise PrometheusParseError(f"line {lineno}: duplicate series {key!r}")
        fam["samples"][key] = _parse_value(value_text)
    return families


# ----------------------------------------------------------------------
# JSON snapshot schema
# ----------------------------------------------------------------------
class SnapshotSchemaError(ValueError):
    """An observability snapshot does not match the documented schema."""


def validate_snapshot(snap: Any) -> None:
    """Structurally validate an ``Observability.snapshot()`` dict.

    Raises :class:`SnapshotSchemaError` with a description of the first
    violation; returns ``None`` when the snapshot is well-formed.
    """
    from repro.obs.core import SNAPSHOT_SCHEMA, SNAPSHOT_VERSION

    def fail(msg: str) -> None:
        raise SnapshotSchemaError(msg)

    if not isinstance(snap, dict):
        fail("snapshot must be a dict")
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        fail(f"schema must be {SNAPSHOT_SCHEMA!r}, got {snap.get('schema')!r}")
    if snap.get("version") != SNAPSHOT_VERSION:
        fail(f"unsupported snapshot version {snap.get('version')!r}")
    if not isinstance(snap.get("enabled"), bool):
        fail("'enabled' must be a bool")
    if not isinstance(snap.get("config"), dict):
        fail("'config' must be a dict")
    metrics = snap.get("metrics")
    if not isinstance(metrics, dict):
        fail("'metrics' must be a dict")
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics or not isinstance(metrics[section], dict):
            fail(f"metrics.{section} must be a dict")
    for key, value in {**metrics["counters"], **metrics["gauges"]}.items():
        if not isinstance(value, (int, float)):
            fail(f"metric {key!r} must be numeric, got {type(value).__name__}")
    for key, hist in metrics["histograms"].items():
        if not isinstance(hist, dict):
            fail(f"histogram {key!r} must be a dict")
        for field in ("count", "sum", "buckets", "p50", "p95", "p99"):
            if field not in hist:
                fail(f"histogram {key!r} missing {field!r}")
        if not isinstance(hist["buckets"], dict):
            fail(f"histogram {key!r} buckets must be a dict")
    health = snap.get("health")
    if health is not None:
        if not isinstance(health, dict):
            fail("'health' must be a dict or null")
        for qid, entry in health.items():
            if not isinstance(entry, dict) or "lazy_deferrals" not in entry:
                fail(f"health[{qid!r}] is not a QueryHealth record")
    try:
        json.dumps(snap)
    except (TypeError, ValueError) as exc:
        fail(f"snapshot is not JSON-serializable: {exc}")


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
class ObsHTTPServer:
    """Serves a monitor's metrics over HTTP from a daemon thread.

    ``port=0`` (the default) binds an ephemeral port; read the actual
    address from :attr:`address` after :meth:`start`.  The handler only
    *reads* monitor state — the monitor itself stays single-threaded;
    scraping mid-batch may observe a partially processed batch, which is
    fine for monitoring purposes.
    """

    def __init__(self, monitor: "CRNNMonitor", host: str = "127.0.0.1", port: int = 0):
        self.monitor = monitor
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises if the server isn't running."""
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        """Base URL of the running server (``http://host:port``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ObsHTTPServer":
        """Bind the socket and serve scrapes from a daemon thread; returns self."""
        monitor = self.monitor

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

            def _send(self, code: int, body: bytes, ctype: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = monitor.obs.render_prometheus().encode()
                    self._send(200, body, CONTENT_TYPE_PROM)
                elif path == "/snapshot.json":
                    body = json.dumps(
                        monitor.obs.snapshot(), indent=2, sort_keys=True
                    ).encode()
                    self._send(200, body, "application/json")
                elif path == "/healthz":
                    body = json.dumps({
                        "status": "ok",
                        "objects": monitor.object_count(),
                        "queries": monitor.query_count(),
                    }).encode()
                    self._send(200, body, "application/json")
                else:
                    self._send(404, b"not found\n", "text/plain")

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="crnn-obs-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObsHTTPServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
