#!/usr/bin/env python
"""Mutant-killing as a command: each listed source patch must fail its named tests.

``tools/mutants.json`` is a checked-in list of small, deliberate bugs —
``{"name", "file", "find", "replace", "kills": [test ids]}`` — each one a
change that the test suite claims to catch.  This script copies ``src/``
and ``tests/`` (plus ``pyproject.toml`` for the pytest settings) into a
temporary directory, checks that every named test passes there
unmutated, then applies the mutants one at a time — ``find`` must occur
exactly once in ``file`` and is replaced by ``replace`` — and runs that
mutant's ``kills``.  Every named test must fail under its mutant.  The
repository itself is never written.

    python tools/mutants.py

Exit status 0 when every mutant is killed by every test it names, 1
otherwise (a surviving test, a ``find`` that no longer matches, or a
named test that fails before any mutation).  Run by ``make mutants``,
``make check`` and the CI lint job; name a few fast tests per mutant so
the whole list stays well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tools", "mutants.json")
FIELDS = ("name", "file", "find", "replace", "kills")


def load(path: str) -> list[dict]:
    """The mutant list, each entry checked for its five fields."""
    with open(path, encoding="utf-8") as fh:
        mutants = json.load(fh)
    for entry in mutants:
        missing = [f for f in FIELDS if f not in entry]
        if missing or not entry["kills"]:
            raise SystemExit(f"mutant {entry.get('name')!r}: missing {missing or ['kills']}")
    return mutants


def copy_tree(dest: str) -> None:
    """``src/``, ``tests/`` and the pytest settings, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy2(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(tree: str, ids: list[str]) -> tuple[int, set[str]]:
    """Run ``ids`` in ``tree``; returns (exit status, ids reported failed/errored)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                failed.add(line[len(prefix):].split(" - ")[0])
    return proc.returncode, failed


def main() -> int:
    """CLI entry point; returns the exit status."""
    mutants = load(MUTANTS)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="crnn-mutants-") as tree:
        copy_tree(tree)
        ids = sorted({i for m in mutants for i in m["kills"]})
        status, failed = run_tests(tree, ids)
        if status != 0:
            print(f"[mutants] named tests fail unmutated: {sorted(failed) or status}")
            return 1
        print(f"[mutants] {len(ids)} named tests pass unmutated")
        for m in mutants:
            path = os.path.join(tree, m["file"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            count = original.count(m["find"])
            if count != 1:
                problems.append(f"{m['name']}: 'find' occurs {count} times in {m['file']}")
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m["find"], m["replace"]))
            try:
                _status, failed = run_tests(tree, m["kills"])
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            survivors = [i for i in m["kills"] if i not in failed]
            if survivors:
                problems.append(f"{m['name']}: survived {survivors}")
            print(f"[mutants] {m['name']}: killed by {len(m['kills']) - len(survivors)}"
                  f"/{len(m['kills'])} named tests")
    for problem in problems:
        print(f"[mutants] FAIL {problem}")
    if not problems:
        print(f"[mutants] OK: {len(mutants)} mutants, each killed by every test it names")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
