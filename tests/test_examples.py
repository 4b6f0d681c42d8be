"""Smoke tests: every shipped example must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("quickstart.py", (), "initial RNNs of the dispatcher"),
        ("botfighters.py", (), "final threat list"),
        ("battlefield.py", (), "speedup"),
        ("compare_variants.py", ("400", "40"), "LU+PI"),
        ("serve_quickstart.py", (), "RNNs over the wire"),
    ],
)
def test_example_runs(script, args, expect):
    result = _run(script, *args)
    assert result.returncode == 0, result.stderr
    assert expect in result.stdout


def test_examples_directory_is_covered():
    """Every example script has a smoke test above."""
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    covered = {
        "quickstart.py",
        "botfighters.py",
        "battlefield.py",
        "compare_variants.py",
        "serve_quickstart.py",
    }
    assert scripts == covered, f"untested examples: {scripts - covered}"
