"""Tests for the crnnlint static-analysis suite (DESIGN §14).

Three layers:

* **Per-rule fixtures** — each CRNN00x rule fires on a minimal bad
  snippet and stays silent on its good twin, exercised against tiny
  trees built under ``tmp_path`` that mirror the ``src/repro`` layout
  (the default scoping globs must match them).
* **Drift demonstrations** — the acceptance criterion for the
  cross-file rules: a fixture tree that adds a fake shard op fails
  CRNN003, and one that emits a fake ``crnn_bogus_total`` fails
  CRNN004, with the right rule id anchored to the right file.
* **Self-check** — the live repository tree lints clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Finding, LintConfig, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def lint_tree(root: Path, files: dict[str, str], select=None) -> list[Finding]:
    """Write ``files`` (rel path -> dedented source) and lint the tree."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return run_lint(root, config=LintConfig(), select=select)


def only_rule(findings: list[Finding], rule: str) -> list[Finding]:
    return [f for f in findings if f.rule == rule]


def assert_fires(findings: list[Finding], rule: str, substr: str = "") -> Finding:
    hits = [f for f in only_rule(findings, rule) if substr in f.message]
    assert hits, (
        f"expected a {rule} finding"
        + (f" mentioning {substr!r}" if substr else "")
        + f"; got: {[f.render() for f in findings]}"
    )
    return hits[0]


def assert_silent(findings: list[Finding], rule: str) -> None:
    hits = only_rule(findings, rule)
    assert not hits, f"unexpected {rule} finding(s): {[f.render() for f in hits]}"


# ----------------------------------------------------------------------
# CRNN001 — determinism in tick-path modules
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_wall_clock_read_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/mod.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
            select=["CRNN001"],
        )
        f = assert_fires(findings, "CRNN001", "time.time")
        assert f.path == "src/repro/core/mod.py"
        assert f.line == 4

    def test_monotonic_clock_is_allowed(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/mod.py": """\
                import time

                def stamp():
                    return time.perf_counter()
                """
            },
            select=["CRNN001"],
        )
        assert_silent(findings, "CRNN001")

    def test_from_import_alias_is_resolved(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/grid/mod.py": """\
                from time import time as now

                def stamp():
                    return now()
                """
            },
            select=["CRNN001"],
        )
        assert_fires(findings, "CRNN001", "time.time")

    def test_global_rng_fires_seeded_rng_does_not(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/rnn/bad.py": """\
                import random

                def jitter():
                    return random.random()
                """,
                "src/repro/rnn/good.py": """\
                import random

                def jitter(seed):
                    return random.Random(seed).random()
                """,
            },
            select=["CRNN001"],
        )
        assert [f.path for f in only_rule(findings, "CRNN001")] == [
            "src/repro/rnn/bad.py"
        ]

    def test_set_iteration_fires_sorted_does_not(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/shard/engine.py": """\
                def drain(pending):
                    for qid in {1, 2, 3}:
                        yield qid
                """,
                "src/repro/shard/monitor.py": """\
                def drain(pending):
                    for qid in sorted(pending):
                        yield qid
                """,
            },
            select=["CRNN001"],
        )
        assert [f.path for f in only_rule(findings, "CRNN001")] == [
            "src/repro/shard/engine.py"
        ]

    def test_dict_keys_iteration_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/mod.py": """\
                def drain(table):
                    out = []
                    for qid in table.keys():
                        out.append(qid)
                    return out
                """
            },
            select=["CRNN001"],
        )
        assert_fires(findings, "CRNN001", "keys()")

    def test_out_of_scope_modules_are_exempt(self, tmp_path):
        # serve/ is not on the bit-exact tick path: wall clocks are fine.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/app.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
            select=["CRNN001"],
        )
        assert_silent(findings, "CRNN001")

    def test_perf_kernels_are_on_the_tick_path(self, tmp_path):
        # perf/kernels.py holds the vectorized twins of core/ and grid/
        # code and must be as deterministic; the rest of perf/ (phase
        # timers) is not in scope.
        clock = """\
        import time

        def stamp():
            return time.time()
        """
        findings = lint_tree(
            tmp_path,
            {"src/repro/perf/kernels.py": clock, "src/repro/perf/timers.py": clock},
            select=["CRNN001"],
        )
        assert [f.path for f in only_rule(findings, "CRNN001")] == [
            "src/repro/perf/kernels.py"
        ]


# ----------------------------------------------------------------------
# CRNN002 — async safety
# ----------------------------------------------------------------------
class TestAsyncSafety:
    def test_blocking_sleep_in_async_def_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/app.py": """\
                import time

                async def tick():
                    time.sleep(0.1)
                """
            },
            select=["CRNN002"],
        )
        f = assert_fires(findings, "CRNN002", "time.sleep")
        assert "asyncio.sleep" in f.message  # suggests the alternative

    def test_awaited_asyncio_sleep_is_fine(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/app.py": """\
                import asyncio

                async def tick():
                    await asyncio.sleep(0.1)
                """
            },
            select=["CRNN002"],
        )
        assert_silent(findings, "CRNN002")

    def test_blocking_open_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/app.py": """\
                async def dump(path):
                    with open(path) as fh:
                        return fh.read()
                """
            },
            select=["CRNN002"],
        )
        assert_fires(findings, "CRNN002", "open")

    def test_nested_sync_helper_is_not_flagged(self, tmp_path):
        # The blocking call is in a nested *sync* function the coroutine
        # merely defines (e.g. to hand to run_in_executor).
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/app.py": """\
                import time

                async def tick(loop):
                    def blocking():
                        time.sleep(0.1)
                    await loop.run_in_executor(None, blocking)
                """
            },
            select=["CRNN002"],
        )
        assert_silent(findings, "CRNN002")


# ----------------------------------------------------------------------
# CRNN003 — shard protocol exhaustiveness (drift demonstration)
# ----------------------------------------------------------------------
def protocol_tree(
    extra_dispatch: str = "",
    extra_journal: str = "",
    extra_deadline: str = "",
    lifecycle: str = '"close"',
    extra_worker: str = "",
) -> dict[str, str]:
    """A minimal consistent four-surface protocol tree, plus drift hooks."""
    return {
        "src/repro/shard/engine.py": f"""\
        def dispatch_op(shard, op, payload):
            if op == "tick":
                return shard.tick(payload)
            if op in ("region", "stats"{extra_dispatch}):
                return shard.read(op)
            raise ValueError(op)
        """,
        "src/repro/shard/journal.py": f"""\
        MUTATING_OPS = frozenset({{"tick"}})
        READONLY_OPS = frozenset({{"region", "stats"{extra_journal}}})
        LIFECYCLE_OPS = frozenset({{{lifecycle}}})
        """,
        "src/repro/shard/supervisor.py": f"""\
        OP_DEADLINE_SCALE = {{
            "tick": 1.0,
            "region": 1.0,
            "stats": 1.0,
            "close": 1.0,{extra_deadline}
        }}
        """,
        "src/repro/shard/executor.py": f"""\
        def _worker_main(conn):
            while True:
                op, payload = conn.recv()
                if op == "close":
                    break{extra_worker}
        """,
    }


class TestProtocolExhaustiveness:
    def test_consistent_tree_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, protocol_tree(), select=["CRNN003"])
        assert findings == []

    def test_fake_dispatch_op_fails_the_lint(self, tmp_path):
        # The acceptance demo: an op added to the dispatch table but to
        # no other surface must fail with CRNN003 naming the op.
        findings = lint_tree(
            tmp_path,
            protocol_tree(extra_dispatch=', "frobnicate"'),
            select=["CRNN003"],
        )
        f = assert_fires(findings, "CRNN003", "frobnicate")
        assert f.path == "src/repro/shard/journal.py"

    def test_stale_deadline_entry_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            protocol_tree(extra_deadline=' "ghost_op": 2.0,'),
            select=["CRNN003"],
        )
        f = assert_fires(findings, "CRNN003", "ghost_op")
        assert f.path == "src/repro/shard/supervisor.py"

    def test_lifecycle_op_unhandled_by_worker_fires(self, tmp_path):
        tree = protocol_tree(lifecycle='"close", "restore"')
        tree["src/repro/shard/supervisor.py"] = textwrap.dedent(
            """\
            OP_DEADLINE_SCALE = {
                "tick": 1.0,
                "region": 1.0,
                "stats": 1.0,
                "close": 1.0,
                "restore": 4.0,
            }
            """
        )
        findings = lint_tree(tmp_path, tree, select=["CRNN003"])
        f = assert_fires(findings, "CRNN003", "restore")
        assert f.path == "src/repro/shard/executor.py"

    @pytest.mark.parametrize(
        "surface, drift",
        [
            ("src/repro/shard/journal.py", {"extra_dispatch": ', "rebalance"'}),
            ("src/repro/shard/supervisor.py", {"lifecycle": '"close", "rebalance"'}),
            ("src/repro/shard/supervisor.py", {"extra_deadline": ' "rebalance": 4.0,'}),
            (
                "src/repro/shard/executor.py",
                {"extra_worker": f'\n{" " * 16}if op == "rebalance":\n{" " * 20}pass'},
            ),
        ],
        ids=["dispatch", "journal", "deadline", "worker"],
    )
    def test_leftover_retired_op_fires_on_every_surface(self, tmp_path, surface, drift):
        # An op retired from the protocol must leave all four surfaces
        # at once; one forgotten entry anywhere is reported by name.
        findings = lint_tree(tmp_path, protocol_tree(**drift), select=["CRNN003"])
        named = {f.path for f in only_rule(findings, "CRNN003") if "rebalance" in f.message}
        assert surface in named, [f.render() for f in findings]

    def test_overlapping_classification_sets_fire(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            protocol_tree(extra_journal=', "tick"'),
            select=["CRNN003"],
        )
        assert_fires(findings, "CRNN003", "both MUTATING_OPS and READONLY_OPS")

    def test_missing_surface_is_reported_not_crashed(self, tmp_path):
        tree = protocol_tree()
        del tree["src/repro/shard/journal.py"]
        findings = lint_tree(tmp_path, tree, select=["CRNN003"])
        assert_fires(findings, "CRNN003", "cannot cross-check")


# ----------------------------------------------------------------------
# CRNN004 — metric registry drift (drift demonstration)
# ----------------------------------------------------------------------
INVENTORY = """\
# Inventory

| metric | type | meaning |
|--------|------|---------|
| `crnn_good_total` | counter | a documented metric |
{extra_row}
"""


def metrics_tree(emit: str, extra_row: str = "") -> dict[str, str]:
    return {
        "src/repro/obs/metrics.py": f"""\
        def emit(registry):
            registry.inc({emit})
        """,
        "DESIGN.md": INVENTORY.format(extra_row=extra_row),
        "docs/OPERATIONS.md": INVENTORY.format(extra_row=extra_row),
    }


class TestMetricRegistryDrift:
    def test_documented_metric_is_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path, metrics_tree('"crnn_good_total"'), select=["CRNN004"]
        )
        assert findings == []

    def test_fake_metric_emission_fails_the_lint(self, tmp_path):
        # The acceptance demo: emitting crnn_bogus_total without a row
        # in either inventory table must fail with CRNN004.
        findings = lint_tree(
            tmp_path, metrics_tree('"crnn_bogus_total"'), select=["CRNN004"]
        )
        f = assert_fires(findings, "CRNN004", "crnn_bogus_total")
        assert f.path == "src/repro/obs/metrics.py"
        # Both inventory documents must name it: one finding per doc.
        bogus = [f for f in only_rule(findings, "CRNN004") if "bogus" in f.message]
        assert len(bogus) == 2

    def test_documented_but_never_emitted_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            metrics_tree(
                '"crnn_good_total"',
                extra_row="| `crnn_ghost_total` | gauge | no longer emitted |",
            ),
            select=["CRNN004"],
        )
        f = assert_fires(findings, "CRNN004", "crnn_ghost_total")
        assert f.path in ("DESIGN.md", "docs/OPERATIONS.md")

    def test_prefix_literals_and_docstrings_are_not_emissions(self, tmp_path):
        tree = metrics_tree('"crnn_good_total"')
        tree["src/repro/obs/other.py"] = '''\
        """Mentions crnn_ghost_total in prose, which is not an emission."""
        PREFIX = "crnn_serve_"
        '''
        findings = lint_tree(tmp_path, tree, select=["CRNN004"])
        assert findings == []

    def test_label_suffix_in_doc_row_is_stripped(self, tmp_path):
        tree = metrics_tree(
            '"crnn_good_total"',
            extra_row="| `crnn_labeled_total{outcome}` | counter | labeled |",
        )
        tree["src/repro/obs/labeled.py"] = """\
        def emit(registry):
            registry.inc("crnn_labeled_total")
        """
        findings = lint_tree(tmp_path, tree, select=["CRNN004"])
        assert findings == []


# ----------------------------------------------------------------------
# CRNN005 — exception hygiene
# ----------------------------------------------------------------------
class TestExceptionHygiene:
    def test_bare_except_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/util.py": """\
                def f():
                    try:
                        g()
                    except:
                        pass
                """
            },
            select=["CRNN005"],
        )
        assert_fires(findings, "CRNN005", "bare")

    def test_silent_broad_swallow_fires_logged_does_not(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/bad.py": """\
                def f():
                    try:
                        g()
                    except Exception:
                        pass
                """,
                "src/repro/good.py": """\
                import logging

                def f():
                    try:
                        g()
                    except Exception:
                        logging.exception("g failed")
                """,
            },
            select=["CRNN005"],
        )
        assert [f.path for f in only_rule(findings, "CRNN005")] == [
            "src/repro/bad.py"
        ]

    def test_narrow_silent_handler_is_fine(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/ok.py": """\
                def f():
                    try:
                        g()
                    except KeyError:
                        pass
                """
            },
            select=["CRNN005"],
        )
        assert_silent(findings, "CRNN005")

    def test_swallowed_shard_worker_error_fires_outside_supervisor(self, tmp_path):
        body = """\
        from repro.shard.errors import ShardWorkerError

        def f():
            try:
                g()
            except ShardWorkerError as exc:
                log(exc)
        """
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/handler.py": body,
                # The classification path: exempt by config.
                "src/repro/shard/supervisor.py": body,
            },
            select=["CRNN005"],
        )
        assert [f.path for f in only_rule(findings, "CRNN005")] == [
            "src/repro/serve/handler.py"
        ]

    def test_reraised_shard_worker_error_is_fine(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/serve/handler.py": """\
                from repro.shard.errors import ShardWorkerError

                def f():
                    try:
                        g()
                    except ShardWorkerError as exc:
                        log(exc)
                        raise
                """
            },
            select=["CRNN005"],
        )
        assert_silent(findings, "CRNN005")


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
class TestSuppressions:
    BAD_LINE = "src/repro/core/mod.py"

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                self.BAD_LINE: """\
                import time

                def stamp():
                    return time.time()  # crnnlint: disable=CRNN001 -- test fixture clock
                """
            },
            select=["CRNN001"],
        )
        assert findings == []

    def test_unjustified_suppression_is_itself_a_finding(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                self.BAD_LINE: """\
                import time

                def stamp():
                    return time.time()  # crnnlint: disable=CRNN001
                """
            },
            select=["CRNN001"],
        )
        # The CRNN001 finding is suppressed, but the naked pragma is not
        # acceptable: CRNN-SUP001 demands a `-- justification`.
        assert_silent(findings, "CRNN001")
        assert_fires(findings, "CRNN-SUP001", "justification")

    def test_suppression_only_covers_its_own_rule(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                self.BAD_LINE: """\
                import time

                def stamp():
                    return time.time()  # crnnlint: disable=CRNN005 -- wrong rule id
                """
            },
            select=["CRNN001"],
        )
        assert_fires(findings, "CRNN001", "time.time")

    def test_unused_suppression_is_flagged_on_full_runs(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                self.BAD_LINE: """\
                def stamp():
                    return 7  # crnnlint: disable=CRNN001 -- nothing to suppress
                """
            },
        )
        assert_fires(findings, "CRNN-SUP002", "unused suppression")


# ----------------------------------------------------------------------
# Live tree + CLI + bench drift guard
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_repository_lints_clean(self):
        """The shipped tree must carry zero unsuppressed findings."""
        findings = run_lint(REPO_ROOT)
        assert findings == [], "live tree has findings:\n" + "\n".join(
            f.render() for f in findings
        )

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "crnnlint.py"), "--list-rules"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        for rule in ("CRNN001", "CRNN002", "CRNN003", "CRNN004", "CRNN005"):
            assert rule in proc.stdout

    def test_cli_fails_on_dirty_fixture_tree(self, tmp_path):
        (tmp_path / "src/repro/core").mkdir(parents=True)
        (tmp_path / "src/repro/core/mod.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "crnnlint.py"),
                "--root",
                str(tmp_path),
                "--select",
                "CRNN001",
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["rule"] == "CRNN001"
