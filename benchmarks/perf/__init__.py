"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
