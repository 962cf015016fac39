"""Benchmark harness for kuramoto-rc.

Run it from the repository root::

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 30 --trace 0

``workloads`` defines what runs, ``tracing`` measures the library's layers
from outside by wrapping its functions, and ``run`` measures, checks and
prints the result. ``BENCHMARK.json`` at the repository root names the
workloads and metrics.
"""
