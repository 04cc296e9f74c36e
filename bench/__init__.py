"""Benchmark of the fuzzymaps package; run it through bench/run.py."""
