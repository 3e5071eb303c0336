"""The perf ledger: one benchmark, one record schema, one judge.

``run.py`` is the entry point named by the root ``BENCHMARK.json``;
``README.md`` holds the workload and metric tables.
"""
