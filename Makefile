# Convenience targets for the CRNN reproduction.

PYTHON ?= python

.PHONY: install test check lint mutants chaos-smoke chaos-heavy serve-soak bench bench-pairs bench-paper docs docs-lint experiments experiments-quick examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The core of what CI runs: the static-analysis suite, the listed
# mutants, the tier-1 suite (the exactness harness included), the seeded
# worker-kill loop, and the benchmark at smoke scale with one traced
# pass (as CI's `bench` job, which also runs `pytest bench`), so the
# yardstick and its layer-table hooks are executed on every PR.
check: lint mutants
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m repro.shard.chaos --seconds 60
	$(PYTHON) bench/run.py --quick --seed 1 --trace 1

# The full static-analysis gate (DESIGN §14, what the CI lint job
# runs): the crnnlint project-invariant rules (CRNN001/002/004/005), ruff and
# the mypy strict/ratchet passes (both skip with a notice when the
# tool is not installed — CI installs them), and the docstring floor.
lint:
	$(PYTHON) tools/crnnlint.py
	$(PYTHON) tools/run_ruff.py
	$(PYTHON) tools/run_mypy.py
	$(PYTHON) tools/docstring_coverage.py --fail-under 85 src/repro

# Each source patch in tools/mutants.json, applied alone to a temporary
# copy of src/ + tests/, must fail every test it names (which must pass
# unmutated).  Seconds: only the named tests run.
mutants:
	$(PYTHON) tools/mutants.py

# Seeded 60-second worker-kill loop: SIGKILLs every worker every 5th
# tick and asserts the drained events and logical counters stay
# bit-identical to an unsharded monitor on the same stream.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.shard.chaos --seconds 60

# The full deterministic fault matrix (K x kill-point x fault-kind),
# excluded from the default pytest run by the `chaos` marker.
chaos-heavy:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_shard_chaos.py -m chaos

# The one benchmark (bench/README.md): five named workloads, oracle-
# checked, end-to-end metrics plus a traced per-layer table. Compare two
# runs' result files with `python3 bench/run.py compare A B`.
bench:
	$(PYTHON) bench/run.py

# A change against its parent, the way a speed claim has to be shown
# (docs/TUNING.md "Measuring a change"): PARENT's committed files in a
# temporary directory, alternating same-seed pairs of bench/run.py on
# both trees, then `bench/run.py compare`.
#   make bench-pairs PARENT=<rev> [PAIRS=10] [WORKLOAD=obj-move]
PAIRS ?= 10
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --pairs $(PAIRS) $(if $(WORKLOAD),--workload $(WORKLOAD))

# The 30-second seeded serving soak (excluded from tier-1 by marker).
serve-soak:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_serve_load.py -m soak

# The original pytest-benchmark suite over the paper's tables/figures.
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# API reference into docs/api (pdoc when installed, stdlib fallback
# otherwise) after enforcing the docstring floor.
docs: docs-lint
	PYTHONPATH=src $(PYTHON) tools/gen_api_docs.py --out docs/api

# Docs gates (also the CI docs job): the docstring-coverage floor and
# every intra-repo Markdown link resolving.
docs-lint:
	$(PYTHON) tools/docstring_coverage.py --fail-under 85 src/repro
	$(PYTHON) tools/check_links.py

experiments:
	$(PYTHON) -m repro.bench.run_all --json results_full.json --markdown results_full.md
	$(PYTHON) -m repro.bench.fill_experiments results_full.json EXPERIMENTS.md

experiments-quick:
	$(PYTHON) -m repro.bench.run_all --quick

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks .mypy_cache .ruff_cache bench/out src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
