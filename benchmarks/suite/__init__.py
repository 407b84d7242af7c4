"""Benchmark suite for the simulator; see README.md and run.py."""
