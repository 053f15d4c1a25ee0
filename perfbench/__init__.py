"""Benchmark of bcprof: workloads, output checks, traced run.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""
