"""The repository benchmark: four workloads, end-to-end and per-layer
metrics, declared in ``BENCHMARK.json`` at the checkout root.

Importing this package imports nothing else, so the set-up probes in
:mod:`benchmarks.suite.fresh` time the program's imports alone.
"""
