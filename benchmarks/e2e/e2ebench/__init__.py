"""The end-to-end benchmark harness behind ``benchmarks/e2e/run.py``."""
