#!/usr/bin/env python
"""Alternating same-seed benchmark pairs: a parent revision against this tree.

What a change that claims (or disclaims) a speed-up has to show — see
docs/TUNING.md "Measuring a change": the parent and the change measured
by identical benchmark code on the same seeds, at least ten pairs, the
side that runs first alternating, then one ``bench/run.py compare``.

    python tools/bench_pairs.py --parent REV [--pairs 10] [--workload NAME]
                                [--first-seed S] [--out DIR]

Side ``A`` is ``REV``'s committed files, extracted with ``git archive``
into a temporary directory (removed afterwards; the repository and its
index are not touched); side ``B`` is the tree this script lives in, as
it is on disk.  Pair ``i`` runs ``bench/run.py --seed first_seed+i`` on
both sides — ``A`` first on even pairs, ``B`` first on odd ones — each
with its own tree as working directory and the run length ``bench/``
itself sets (no ``--seconds`` is passed), writing ``DIR/A/seed-S.json``
and ``DIR/B/seed-S.json``; the last step is ``bench/run.py compare
DIR/A DIR/B`` and its exit status is this script's.  Seeds default to a
clock-derived range (printed), so repeated invocations do not re-measure
the seeds a change was tuned on.

Nothing is imported from ``bench/`` and nothing under it is written,
apart from the ``bench/out`` scratch files ``bench/run.py`` itself makes.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract_revision(rev: str, dest: str) -> None:
    """``rev``'s committed files into ``dest`` (``git archive``, no checkout)."""
    blob = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        # The "data" filter (Python 3.12, backported to 3.8.17+ / 3.11.4+)
        # rejects absolute paths and links out of ``dest``.  Python 3.12
        # and 3.13 warn when no filter is given; 3.14 makes it the default.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_side(tree: str, seed: int, out: str, workload: str | None) -> None:
    """One ``bench/run.py`` run of ``tree``; a failed run ends the session."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"),
           "--seed", str(seed), "--out", out]
    if workload:
        cmd += ["--workload", workload]
    # The bench puts its own tree's src/ on the path; an inherited
    # PYTHONPATH must not make both sides import the same program.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited with code {code}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as side A")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", help="one bench workload (default: all)")
    parser.add_argument("--first-seed", type=int, help="seeds are first_seed .. +pairs-1")
    parser.add_argument("--out", help="result directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    first_seed = args.first_seed
    if first_seed is None:
        first_seed = int(time.time()) % 1_000_000
    out = args.out or tempfile.mkdtemp(prefix="bench-pairs-")
    dirs = {side: os.path.join(out, side) for side in "AB"}
    for path in dirs.values():
        os.makedirs(path, exist_ok=True)
    rev = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short", args.parent],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix=f"bench-parent-{rev}-") as parent_tree:
        extract_revision(args.parent, parent_tree)
        trees = {"A": parent_tree, "B": ROOT}
        print(f"A = {rev} in {parent_tree};  B = {ROOT};  results in {out}")
        for i in range(args.pairs):
            seed = first_seed + i
            order = "AB" if i % 2 == 0 else "BA"
            t0 = time.perf_counter()
            for side in order:
                run_side(trees[side], seed, os.path.join(dirs[side], f"seed-{seed}.json"),
                         args.workload)
            print(f"pair {i + 1}/{args.pairs}: seed {seed}, {order[0]} first, "
                  f"{time.perf_counter() - t0:.0f}s", flush=True)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "compare", dirs["A"], dirs["B"]]
    ).returncode


if __name__ == "__main__":
    raise SystemExit(main())
