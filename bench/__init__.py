"""Benchmark for the craft package; see README.md."""
