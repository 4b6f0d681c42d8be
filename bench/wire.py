"""The ``serve-mixed`` workload: a server child process driven over TCP.

The bench process is the load generator — one publisher and one firehose
subscriber connection, both built on the public sans-io ``ClientSession``,
both serviced by one thread with ``select``:

* **Phase A, open loop.**  Timestamp *i* is due at ``t0 + i * period``;
  its pre-encoded ``batch`` + ``tick`` frames are written at the due time
  without awaiting anything.  Latency of *i* is the arrival of the
  ``EventBatch`` stamped with its tick on the subscriber (the ``TickAck``
  when the tick produced no events) minus the **due** time, so a stall
  also charges the timestamps queued behind it.
* **Phase B, closed loop.**  Send, await the ``TickAck``, repeat.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

from repro.serve.client import ClientSession
from repro.serve.protocol import (
    Batch,
    ErrorReply,
    EventBatch,
    FrameDecoder,
    GetResults,
    GetStats,
    Hello,
    Subscribe,
    Tick,
    TickAck,
    encode_frame,
    parse_message,
    to_wire,
)

from bench import oracle, pace, spec, sut
from bench.streams import Snapshot, Stream
from bench.tracing import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Updates per ``batch`` frame (the shipped client's chunk size).
CHUNK = 2000
REPLY_TIMEOUT_S = 30.0


class ServerProc:
    """``python -m repro.serve.server --port 0 --tick-interval 0`` as a child."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.server", "--port", "0",
             "--tick-interval", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server child did not start: {line!r}")
        host, _, port = line.split("listening on ")[1].split()[0].rpartition(":")
        self.address = (host, int(port))
        self.pid = self.proc.pid

    def stop(self) -> None:
        """SIGINT (draining shutdown), then wait; kill if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Conn:
    """One client connection: a blocking socket + the sans-io session."""

    def __init__(self, address: tuple[str, int], name: str):
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.session = ClientSession()
        #: ``(arrival perf_counter, EventBatch)`` in arrival order.
        self.events: list[tuple[float, EventBatch]] = []
        self.request(Hello(client=name, seq=self.session.next_seq()))

    def read(self) -> list:
        """One ``recv``; returns the replies, stashes event frames with arrival."""
        data = self.sock.recv(1 << 16)
        now = time.perf_counter()
        if not data:
            raise ConnectionError("server closed the connection")
        replies = self.session.feed(data)
        self.events.extend((now, ev) for ev in self.session.take_events())
        return replies

    def request(self, msg):
        """Send ``msg`` and block for the reply carrying its ``seq``."""
        self.sock.sendall(self.session.encode(msg))
        while True:
            for reply in self.read():
                if reply.seq == msg.seq:
                    if isinstance(reply, ErrorReply):
                        raise RuntimeError(f"{reply.code}: {reply.detail}")
                    return reply

    def close(self) -> None:
        self.sock.close()


def encode_tick(pub: Conn, updates: list) -> tuple[bytes, int]:
    """``batch`` frames (chunked) + one ``tick`` frame; returns the tick's seq."""
    session = pub.session
    parts = [
        session.encode(Batch(updates=tuple(updates[lo : lo + CHUNK]), seq=session.next_seq()))
        for lo in range(0, len(updates), CHUNK)
    ]
    seq = session.next_seq()
    parts.append(session.encode(Tick(seq=seq)))
    return b"".join(parts), seq


def await_ack(pub: Conn, sub: Conn, seq: int):
    """Block until the publisher sees the reply to ``seq``; keep draining ``sub``."""
    deadline = time.perf_counter() + REPLY_TIMEOUT_S
    while True:
        ready, _, _ = select.select(
            [pub.sock, sub.sock], [], [], max(0.0, deadline - time.perf_counter())
        )
        if not ready:
            raise TimeoutError(f"no reply to seq {seq} within {REPLY_TIMEOUT_S}s")
        if sub.sock in ready:
            sub.read()
        if pub.sock in ready:
            for reply in pub.read():
                if reply.seq == seq:
                    return reply, time.perf_counter()


class Session:
    """A loaded server + publisher + subscriber, ready to tick."""

    def __init__(self, address: tuple[str, int], stream: Stream):
        self.sub = Conn(address, "bench-subscriber")
        self.sub.request(Subscribe(qid=None, seq=self.sub.session.next_seq()))
        self.pub = Conn(address, "bench-publisher")
        ack = self.closed_tick(stream.init.materialize())[0]
        #: Server tick number of the snapshot load; stream tick ``i`` is
        #: server tick ``base + 1 + i``.
        self.base = ack.tick

    def closed_tick(self, updates: list):
        """One closed-loop timestamp: returns ``(reply, seconds)``."""
        frame, seq = encode_tick(self.pub, updates)
        t0 = time.perf_counter()
        self.pub.sock.sendall(frame)
        reply, t1 = await_ack(self.pub, self.sub, seq)
        return reply, t1 - t0

    def sync_subscriber(self) -> None:
        """Round-trip on the subscriber: every earlier event frame has arrived."""
        self.sub.request(GetStats(seq=self.sub.session.next_seq()))

    def close(self) -> None:
        self.pub.close()
        self.sub.close()


def open_loop(sess: Session, frames: list[tuple[bytes, int]], first_tick: int, server_pid: int):
    """Phase A: write timestamp *i* at ``t0 + i * period``; never await.

    Returns per-timestamp ``due``, ``sent``, ``ack`` (arrival or None),
    the ``TickAck``/``ErrorReply`` itself, EventBatch arrival by timestamp,
    the host-speed probe of the server's core taken once a timestamp has
    been delivered (the server has just finished it), and the server's CPU
    read at each ack.
    """
    pub, sub = sess.pub, sess.sub
    n = len(frames)
    period = spec.SERVE_PERIOD_S
    by_seq = {seq: i for i, (_, seq) in enumerate(frames)}
    due = [0.0] * n
    sent = [0.0] * n
    ack_at: list[Optional[float]] = [None] * n
    replies: list = [None] * n
    probes = [0.0] * n
    cpu_at = [0.0] * n
    event_at: dict[int, float] = {}
    n_events = len(sub.events)
    #: Acked timestamps whose event frame is still on its way: the probe
    #: blocks this thread, so it waits until there is nothing to time.
    unprobed: list[int] = []
    acked = 0
    nxt = 0
    gc.collect()
    t0 = time.perf_counter() + 0.02
    grace = None
    while acked < n:
        now = time.perf_counter()
        if nxt < n:
            wait = t0 + nxt * period - now
            if wait <= 0.0:
                due[nxt] = t0 + nxt * period
                sent[nxt] = now
                pub.sock.sendall(frames[nxt][0])
                nxt += 1
                continue
        else:
            if grace is None:
                grace = now + REPLY_TIMEOUT_S
            wait = grace - now
            if wait <= 0.0:
                break  # the rest were never acked
        ready, _, _ = select.select([pub.sock, sub.sock], [], [], wait)
        if sub.sock in ready:
            sub.read()
            for arrival, ev in sub.events[n_events:]:
                event_at.setdefault(ev.tick - sess.base - 1 - first_tick, arrival)
            n_events = len(sub.events)
        if pub.sock in ready:
            for reply in pub.read():
                i = by_seq.get(reply.seq)
                if i is not None:
                    ack_at[i] = time.perf_counter()
                    cpu_at[i] = sut.proc_cpu_s(server_pid)
                    replies[i] = reply
                    acked += 1
                    unprobed.append(i)
        while unprobed and (
            not getattr(replies[unprobed[0]], "events", 0) or unprobed[0] in event_at
        ):
            probes[unprobed.pop(0)] = pace.probe_on(server_pid)
    sess.sync_subscriber()
    for arrival, ev in sub.events[n_events:]:
        event_at.setdefault(ev.tick - sess.base - 1 - first_tick, arrival)
    # A timestamp that was never delivered was never probed either.
    fill = statistics.median([p for p in probes if p] or [pace.probe_on(server_pid)])
    return due, sent, ack_at, replies, event_at, [p or fill for p in probes], cpu_at


def deliveries(
    due: list[float], ack_at: list, replies: list, event_at: dict[int, float]
) -> tuple[list[tuple[int, float]], int]:
    """Phase-A outcomes: ``(timestamp, latency)`` per delivery, and the failed count.

    Latency is arrival of the timestamp's ``EventBatch`` (its ``TickAck``
    when the tick produced no events) minus its due time, on the clock the
    subscriber reads — not speed-normalised.  Failed: never acked,
    ``tick_failed``, updates shed, events announced but never delivered,
    and every delivery later than ``spec.SERVE_DELIVER_LIMIT_S``.
    """
    delivered, failed = [], 0
    for i, reply in enumerate(replies):
        if not isinstance(reply, TickAck) or reply.shed:
            failed += 1
            continue
        arrival = event_at.get(i) if reply.events else ack_at[i]
        if arrival is None:
            failed += 1
            continue
        delivered.append((i, arrival - due[i]))
        failed += delivered[-1][1] > spec.SERVE_DELIVER_LIMIT_S
    return delivered, failed


def fold_events(sub: Conn, fold: oracle.EventFold) -> None:
    """Fold every event frame received so far (arrival order), then forget them."""
    for _, ev in sub.events:
        fold.tick(ev.changes)
    sub.events.clear()


def wire_results(sess: Session, qids) -> dict[int, frozenset[int]]:
    """``results(qid)`` over the wire for every query."""
    out = {}
    for qid in qids:
        reply = sess.pub.request(GetResults(qid=qid, seq=sess.pub.session.next_seq()))
        out[qid] = frozenset(reply.rnn)
    return out


def run_serve(
    wd: spec.WorkloadDef, stream: Stream, plan: spec.RunPlan, corrupt_oracle: bool = False
) -> dict:
    """Untraced run against a server child process."""
    checks = sut.Checks()
    raw_setup_s: list[float] = []
    server = sess = None
    try:
        for _ in range(plan.setup_builds):
            if sess is not None:
                sess.close()
                server.stop()
                sess = server = None
            gc.collect()
            t0 = time.perf_counter()
            server = ServerProc()
            sess = Session(server.address, stream)
            # Not speed-scaled: spawning the interpreter and its imports does
            # not follow the probe (spread 13 % scaled, 11 % as measured).
            raw_setup_s.append(time.perf_counter() - t0)
        fold = oracle.EventFold({})
        snapshot = Snapshot()
        snapshot.apply(stream.init)
        warm, n_open = plan.warmup, plan.open_ticks
        for i in range(warm):
            sess.closed_tick(stream.ticks[i].materialize())
            snapshot.apply(stream.ticks[i])
        frames = [
            encode_tick(sess.pub, stream.ticks[i].materialize())
            for i in range(warm, warm + n_open)
        ]
        cpu0 = sut.proc_cpu_s(server.pid)

        # Phase A: open loop at the fixed period.
        due, sent, ack_at, replies, event_at, probes_a, cpu_at = open_loop(
            sess, frames, warm, server.pid
        )
        for i in range(warm, warm + n_open):
            snapshot.apply(stream.ticks[i])
        scale_a = pace.factors(probes_a, pace.SLEEPER_EXPONENT)
        delivered, failed_a = deliveries(due, ack_at, replies, event_at)
        checks.add("open-loop timestamps", n_open, failed_a, output=False)
        raw_deliver_s = [latency for _, latency in delivered]
        deliver_s = [latency * scale_a[i] for i, latency in delivered]
        late = [sent[i] - due[i] for i, _ in delivered]
        wait_s = [
            max(0.0, ack_at[i - 1] - due[i])
            for i in range(1, n_open)
            if ack_at[i - 1] is not None
        ]

        # Phase B: closed loop, back to back.
        raw_tick_s, probes_b, updates, failed_b = [], [], [], 0
        gc.collect()
        first_closed = warm + n_open
        for i in range(first_closed, warm + plan.ticks):
            batch = stream.ticks[i].materialize()
            probes_b.append(pace.probe_on(server.pid))
            reply, seconds = sess.closed_tick(batch)
            snapshot.apply(stream.ticks[i])
            if not isinstance(reply, TickAck) or reply.shed:
                failed_b += 1
            raw_tick_s.append(seconds)
            cpu_at.append(sut.proc_cpu_s(server.pid))
            updates.append(len(batch))
        checks.add("closed-loop timestamps", len(raw_tick_s), failed_b, output=False)
        scale_b = pace.factors(probes_b, pace.SLEEPER_EXPONENT)
        tick_s = [t * f for t, f in zip(raw_tick_s, scale_b)]
        scale = scale_a + scale_b
        # Server CPU per timestamp: difference of the reads at successive
        # acks (10 ms clock ticks; the trimmed mean absorbs the grain).
        raw_cpu_s, cpu_s, before = [], [], cpu0
        for after, f in zip(cpu_at, scale):
            if after:  # 0.0 = never acked
                raw_cpu_s.append(after - before)
                cpu_s.append(raw_cpu_s[-1] * f)
                before = after
        rss = sut.proc_peak_rss_mb(server.pid)

        # Correctness: wire results vs oracle vs folded event frames.
        sess.sync_subscriber()
        fold_events(sess.sub, fold)
        final = wire_results(sess, sorted(snapshot.queries))
        sut.verify_results(final, fold, snapshot, checks, corrupt_oracle)
        stats = sess.pub.request(GetStats(seq=sess.pub.session.next_seq())).serve
    finally:
        if sess is not None:
            sess.close()
        if server is not None:
            server.stop()

    def metrics(setup, ticks, cpu, deliver) -> dict:
        # Phase B gives tick time and throughput, Phase A delivery latency;
        # the server's CPU is read over both.
        return {
            "setup_s": statistics.median(setup),
            **sut.time_metrics(updates, ticks, cpu),
            "deliver_ms_p50": statistics.median(deliver) * 1e3,
        }

    return {
        "metrics": {**metrics(raw_setup_s, tick_s, cpu_s, deliver_s), "peak_rss_mb": rss},
        "raw": {
            **metrics(raw_setup_s, raw_tick_s, raw_cpu_s, raw_deliver_s),
            "host_speed": statistics.median(scale),
        },
        "layers": {
            "serve.deliver_ms_p95": sut.percentile(deliver_s, 0.95) * 1e3,
            "serve.wait_ms_p50": statistics.median(wait_s) * 1e3,
            "gen.late_ms_p95": sut.percentile(late, 0.95) * 1e3,
            "serve.queue_peak": stats.get("crnn_serve_queue_depth_peak", 0.0),
            "serve.shed": sum(
                v for k, v in stats.items() if k.startswith("crnn_serve_shed_total")
            ),
            "serve.frames_out": stats.get("crnn_serve_frames_out_total", 0.0),
            "monitor.tick_ms_p95": sut.percentile(tick_s, 0.95) * 1e3,
            "monitor.tick_ms_max": max(tick_s) * 1e3,
        },
        "ticks": n_open + len(tick_s),
        "samples": {
            "tick_ms_p50": len(tick_s),
            "deliver_ms_p50": len(deliver_s),
            "serve.deliver_ms_p95": len(deliver_s),
        },
        "tick_ms": [s * 1e3 for s in tick_s],
        "closed_range": [first_closed, first_closed + len(tick_s)],
        "setup_builds_s": raw_setup_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "incorrect": checks.incorrect,
        "notes": checks.notes,
        "event_digests": fold.digests[-1:],
        "events": fold.events,
    }


# ----------------------------------------------------------------------
# Traced pass: the same server code hosted in this process
# ----------------------------------------------------------------------
def trace_serve(
    wd: spec.WorkloadDef, stream: Stream, plan: spec.RunPlan, untraced: dict, out_dir: str
) -> dict[str, float]:
    """Per-layer numbers for ``serve-mixed``.

    Three sources: spans around an in-process ``ServerThread`` (decode and
    the monitor layers; process/fanout come from the server's own
    ``crnn_tick_e2e_seconds`` histogram), a direct ``CRNNMonitor`` replay of
    the untraced run's closed-loop batches (wire overhead), and the
    protocol codec timed standalone on the workload's own frames.
    """
    from repro.serve.server import ServeConfig, ServerThread

    warm = plan.warmup
    n = plan.ticks
    tracer = Tracer()
    tracer.install()
    try:
        thread = ServerThread(ServeConfig())
        address = thread.start()
        try:
            async def loop_thread_ident() -> int:
                return threading.get_ident()

            server = thread.server
            sess = Session(address, stream)
            for i in range(warm):
                sess.closed_tick(stream.ticks[i].materialize())
            e2e = server.registry.get("crnn_tick_e2e_seconds")
            busy0 = {s: e2e.labels(s).sum for s in ("process", "fanout")}
            stats0 = server.monitor.stats.snapshot()
            sess.sub.events.clear()
            tracer.start(thread.call(loop_thread_ident()))
            updates, probes = 0, []
            for i in range(warm, warm + n):
                tracer.tick = i
                batch = stream.ticks[i].materialize()
                probes.append(pace.probe_on(os.getpid()))
                sess.closed_tick(batch)
                updates += len(batch)
            tracer.stop()
            sess.sync_subscriber()
            busy1 = {s: e2e.labels(s).sum for s in ("process", "fanout")}
            stats1 = server.monitor.stats.snapshot()
            records = len(server.monitor.circ)
            event_frames = [ev for _, ev in sess.sub.events]
            sess.close()
        finally:
            thread.stop()
    finally:
        tracer.uninstall()
    table = tracer.table()
    tracer.dump(os.path.join(out_dir, f"trace-{wd.name}.json"))
    speed = statistics.median(pace.factors(probes))
    layers = sut.span_layers(table, n, speed)
    layers.update(sut.counter_layers({k: stats1[k] - stats0[k] for k in stats1}, n))
    layers["guard.updates"] = updates / n
    layers["monitor.events"] = sum(len(ev.changes) for ev in event_frames) / n
    layers["circ.records"] = float(records)
    process_s = (busy1["process"] - busy0["process"]) * speed
    layers["serve.decode_ms"] = table.layer_self_s("serve.decode") * speed / n * 1e3
    layers["serve.process_ms"] = process_s / n * 1e3
    layers["serve.fanout_ms"] = (busy1["fanout"] - busy0["fanout"]) * speed / n * 1e3

    # Wire overhead: child-server round trip vs process() on the same batches.
    lo, hi = untraced["closed_range"]
    direct_wall_s = sut.replay_direct(stream, hi)[0].wall_s
    direct_p50 = statistics.median(direct_wall_s[lo:hi]) * 1e3
    layers["serve.wire_overhead_ms"] = untraced["metrics"]["tick_ms_p50"] - direct_p50
    # Traced process() time (the server's own histogram) against the
    # untraced direct replay of the same ticks.
    layers["trace.overhead_frac"] = process_s / sum(direct_wall_s[warm : warm + n]) - 1.0
    layers.update(_codec_costs(stream, warm, n, event_frames))
    return layers


def _codec_costs(stream: Stream, start: int, count: int, event_frames: list) -> dict[str, float]:
    """``repro.serve.protocol`` timed standalone on the workload's own frames."""
    enc_s = dec_s = 0.0
    n_updates = n_bytes = 0
    for i in range(start, start + count):
        updates = tuple(stream.ticks[i].materialize())
        t0 = time.perf_counter()
        frame = encode_frame(to_wire(Batch(updates=updates, seq=i)))
        t1 = time.perf_counter()
        decoder = FrameDecoder()
        decoder.feed(frame)
        for payload in decoder.frames():
            parse_message(payload)
        t2 = time.perf_counter()
        enc_s += t1 - t0
        dec_s += t2 - t1
        n_updates += len(updates)
        n_bytes += len(frame)
    ev_s, n_changes = 0.0, 0
    for ev in event_frames:
        t0 = time.perf_counter()
        decoder = FrameDecoder()
        decoder.feed(encode_frame(to_wire(ev)))
        for payload in decoder.frames():
            parse_message(payload)
        ev_s += time.perf_counter() - t0
        n_changes += len(ev.changes)
    return {
        "proto.encode_us_per_update": enc_s / n_updates * 1e6,
        "proto.decode_us_per_update": dec_s / n_updates * 1e6,
        "proto.bytes_per_update": n_bytes / n_updates,
        "proto.event_us_per_change": ev_s / n_changes * 1e6 if n_changes else 0.0,
    }
