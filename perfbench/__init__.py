"""Benchmark of the godement toolkit; run perfbench/run.py."""
