"""Whole-stack benchmark: five workloads, end-to-end metrics, traced per-layer table.

Entry point is ``bench/run.py`` (see ``bench/README.md``); the modules here
are importable so ``bench/test_bench.py`` can check them piecewise.
"""
