"""Benchmark for qisflow: drives ``qisflow.cli.main`` with generated problem
files and reports end-to-end and per-layer metrics.  Entry point:
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
