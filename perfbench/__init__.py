"""Benchmark of the splatrim prune -> fine-tune -> evaluate loop (see README.md)."""
