#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python bench/run.py --seed 1 [--workload NAME] [--seconds S]
                        [--trace [0|1]] [--quick] [--out FILE]
    python bench/run.py compare A B

Every workload runs in a fresh child process (allocator and cache state do
not leak between them); each child generates its full update stream from
``--seed`` before anything is timed, runs, checks its outputs against a
brute-force oracle, and hands its numbers back.  With one ``--workload``
the last line of standard output is the driver's JSON object (end-to-end
metrics for ``--trace 0``, per-layer metrics for ``--trace 1``).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import spec  # noqa: E402

#: A child that has not finished by then is killed (driver cap: 180 s).
CHILD_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# Child: one workload, one process
# ----------------------------------------------------------------------
def run_child(args: argparse.Namespace) -> int:
    """Run one workload in this process; write its result JSON to ``--out``."""
    from bench import streams, sut, wire

    wd = spec.WORKLOADS[args.workload]
    if args.quick:
        wd = wd.quick()
    plan = spec.plan_for(wd, args.seconds, args.quick)
    if args.trace:
        # The traced child runs half the ticks untraced (the base of
        # trace.overhead_frac and the shipped timers) and then a quarter
        # traced, which runs slower.
        plan = replace(plan.scaled(0.5), setup_builds=1)  # setup_s is not reported
    result: dict = {"workload": args.workload, "seed": args.seed}
    if wd.kind == "sharded" and (os.cpu_count() or 1) < 2:
        result["skipped"] = "needs >= 2 cores so both shard workers get one"
        _write(args.out, result)
        return 0
    stream = streams.generate(wd, args.seed, plan.warmup + plan.ticks)
    # The stream is bench state, not program state: keep the collector from
    # re-scanning it during the program's ticks.
    gc.collect()
    gc.freeze()
    serve = wd.kind == "serve"
    run = wire.run_serve if serve else sut.run_monitor
    result.update(run(wd, stream, plan, corrupt_oracle=args.corrupt_oracle))
    if args.trace:
        trace = wire.trace_serve if serve else sut.trace_monitor
        result["layers"].update(trace(wd, stream, plan.scaled(0.5), result, OUT_DIR))
    result["stream_digest"] = stream.digest
    result["gen_seconds"] = stream.gen_seconds
    del result["tick_ms"]
    _write(args.out, result)
    return 0


def _write(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Parent: spawn children, check across workloads, print, write
# ----------------------------------------------------------------------
def spawn(name: str, args: argparse.Namespace, trace: int) -> dict:
    """Run workload ``name`` in a fresh child; return its result dict."""
    out = os.path.join(OUT_DIR, f"child-{name}-t{trace}-{os.getpid()}.json")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"bench: workload {name} exceeded {CHILD_TIMEOUT_S:.0f}s")
    if code != 0:
        raise SystemExit(f"bench: workload {name} exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def host_fingerprint() -> dict:
    """What the numbers were measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def metric_rows(values: dict, names) -> dict[str, dict]:
    """``name -> {"value", "unit"}`` for those of ``names`` that ``values`` has."""
    return {
        n: {"value": float(values[n]), "unit": spec.UNITS[n]} for n in names if n in values
    }


def run_all(args: argparse.Namespace) -> int:
    """The default command: selected workloads, checks, report, JSON."""
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    single = args.workload is not None
    e2e_names = [m[0] for m in spec.END_TO_END]
    layer_names = [m[0] for m in spec.PER_LAYER]
    doc: dict = {
        "schema": "crnn-bench/1",
        "host": host_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": bool(args.trace),
        "workloads": {},
        "runs": {},
    }
    attempted = failed = incorrect = 0
    digests: dict[str, list[str]] = {}
    for name in names:
        # End-to-end numbers never come from a traced child.  With one
        # workload and --trace 1 (the driver's per-layer call) only the
        # traced child runs.
        passes = [1] if single and args.trace else [0, 1] if args.trace else [0]
        metrics: dict[str, dict] = {}
        run_info: dict = {}
        checked = missed = 0
        t0 = time.perf_counter()
        for trace in passes:
            result = spawn(name, args, trace)
            if "skipped" in result:
                run_info["skipped"] = result["skipped"]
                break
            checked += result["attempted"]
            missed += result["failed"]
            incorrect += result["incorrect"]
            if trace == 0:
                metrics.update(metric_rows(result["metrics"], e2e_names))
                digests[name] = result["event_digests"]
            else:
                # One list for every workload: a layer off the path reads 0.
                layers = {**dict.fromkeys(layer_names, 0.0), **result["layers"]}
                metrics.update(metric_rows(layers, layer_names))
            key = "traced" if trace else "untraced"
            run_info[key] = {
                k: result[k]
                for k in ("ticks", "samples", "attempted", "failed", "notes",
                          "stream_digest", "gen_seconds", "setup_builds_s", "events", "raw")
            }
        attempted += checked
        failed += missed
        if checked and not (single and args.trace):
            metrics["failed_frac"] = {"value": missed / checked, "unit": "ratio"}
        run_info["wall_s"] = time.perf_counter() - t0
        doc["workloads"][name] = metrics
        doc["runs"][name] = run_info
        print_workload(name, metrics, run_info)

    # The sharded monitor must emit the single monitor's event stream.
    if "obj-move" in digests and "obj-move-k2" in digests:
        a, b = digests["obj-move"], digests["obj-move-k2"]
        common = min(len(a), len(b))
        same = common > 0 and a[common - 1] == b[common - 1]
        attempted += 1
        failed += 0 if same else 1
        incorrect += 0 if same else 1
        doc["runs"]["obj-move-k2"]["event_sha_vs_obj_move"] = {
            "ticks_compared": common, "equal": same,
        }
        print(f"event-stream sha256 obj-move-k2 == obj-move over {common} ticks: {same}")

    doc["attempted"], doc["failed"] = attempted, failed
    if args.out:
        _write(args.out, doc)
        print(f"wrote {args.out}")
    for name, info in doc["runs"].items():
        for key in ("untraced", "traced"):
            for note in info.get(key, {}).get("notes", []):
                print(f"FAILED {name}: {note}", file=sys.stderr)
    if single:
        if "skipped" in doc["runs"][args.workload]:
            print(f"bench: {args.workload} skipped: {doc['runs'][args.workload]['skipped']}",
                  file=sys.stderr)
            return 3
        rows = dict(doc["workloads"][args.workload])
        if not args.trace:
            # The driver wants every end-to-end metric on every workload.
            # In process the caller holds the result when the tick returns
            # (closed loop, no queue), so there delivery is the tick time.
            rows.setdefault("deliver_ms_p50", rows["tick_ms_p50"])
        final = {"metrics": {n: rows[n] for n in (layer_names if args.trace else e2e_names)}}
    else:
        final = {"workloads": sorted(doc["workloads"])}
    # A wrong output fails the command; a timestamp that was shed or
    # delivered late is counted (``failed``, ``failed_frac``) in a run
    # whose outputs were still correct.
    final = {"correct": incorrect == 0, "attempted": max(attempted, 1), "failed": failed, **final}
    print(json.dumps(final))
    return 0 if incorrect == 0 else 1


def print_workload(name: str, metrics: dict, info: dict) -> None:
    """Every metric by name, with its unit."""
    if "skipped" in info:
        print(f"== {name}: skipped ({info['skipped']})")
        return
    print(f"== {name}  ({info['wall_s']:.1f}s wall)")
    for key in ("untraced", "traced"):
        if key in info:
            r = info[key]
            print(f"   {key}: {r['ticks']} measured ticks, {r['events']} events, "
                  f"stream {r['stream_digest'][:12]}, generated in {r['gen_seconds']:.2f}s, "
                  f"checks {r['attempted'] - r['failed']}/{r['attempted']} ok")
    for metric, row in metrics.items():
        print(f"   {metric:<28} {row['value']:>14.4f} {row['unit']}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def load_runs(path: str) -> list[dict]:
    """One result file, or every ``*.json`` result in a directory."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json")
        )
    else:
        files = [path]
    docs = []
    for file in files:
        with open(file, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") == "crnn-bench/1":
            docs.append(doc)
    if not docs:
        raise SystemExit(f"bench compare: no crnn-bench/1 results in {path}")
    return docs


def spread(values: list[float]) -> float | None:
    """Inter-quartile range as a share of the median (needs >= 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): A, B, delta, bound, verdict."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    print(f"A = {path_a} ({len(runs_a)} run(s));  B = {path_b} ({len(runs_b)} run(s))")
    print("delta is (B - A) / A, i.e. relative to A's median; 'worse' follows the "
          "metric's direction; spread is IQR / median of each side's runs; raw is the "
          "same delta on the figures as measured, before speed normalisation")
    header = (f"{'workload':<12} {'metric':<16} {'A':>12} {'B':>12} {'unit':<6} "
              f"{'delta':>8} {'bound':>7} {'spreadA':>8} {'spreadB':>8} {'raw':>8}  verdict")
    print(header)

    def values(docs: list[dict], name: str, metric: str) -> tuple[list[float], list[float]]:
        rows = [d["workloads"][name][metric]["value"] for d in docs
                if metric in d["workloads"].get(name, {})]
        raw = [d["runs"][name]["untraced"]["raw"][metric] for d in docs
               if metric in d["runs"].get(name, {}).get("untraced", {}).get("raw", {})]
        return rows, raw

    regressed = 0
    for name in spec.WORKLOADS:
        for metric, unit, better, bound in spec.END_TO_END + (spec.FAILED_FRAC,):
            (a, raw_a), (b, raw_b) = values(runs_a, name, metric), values(runs_b, name, metric)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            raw_txt = "-"
            if raw_a and raw_b:
                raw_txt = f"{statistics.median(raw_b) / statistics.median(raw_a) - 1.0:+.2%}"
            if metric == "failed_frac":
                verdict = "regressed" if med_b > med_a else "ok"
                delta_txt, bound_txt = f"{med_b - med_a:+.4f}", "+0 abs"
                sp_a = sp_b = None
            else:
                delta = (med_b - med_a) / med_a
                worse_by = delta if better == "lower" else -delta
                sp_a, sp_b = spread(a), spread(b)
                widest = max((s for s in (sp_a, sp_b) if s is not None), default=None)
                if widest is not None and widest > bound:
                    # Too noisy to call unchanged; clean only when every B
                    # run beats every A run.
                    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
                    verdict = "ok" if b_wins else "unresolved"
                else:
                    verdict = "regressed" if worse_by > bound else "ok"
                delta_txt, bound_txt = f"{delta:+.2%}", f"{bound:.0%}"
            regressed += verdict == "regressed"
            fmt = lambda s: "-" if s is None else f"{s:.2%}"  # noqa: E731
            print(f"{name:<12} {metric:<16} {med_a:>12.4f} {med_b:>12.4f} {unit:<6} "
                  f"{delta_txt:>8} {bound_txt:>7} {fmt(sp_a):>8} {fmt(sp_b):>8} {raw_txt:>8}  "
                  f"{verdict}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("a", help="result file, or directory of result files")
        parser.add_argument("b", help="result file, or directory of result files")
        ns = parser.parse_args(argv[1:])
        return compare(ns.a, ns.b)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=float(spec.DEFAULT_SECONDS),
                        help="run length; buys spec.TICKS_PER_SECOND measured ticks each "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (or, with --workload, only) produce the per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="n/10 and 30 ticks: a smoke run of the same code paths")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)
    try:
        import repro  # noqa: F401 - fail before spawning anything
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
