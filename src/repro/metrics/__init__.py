"""Measurement utilities shared by the models and the experiment harness.

These are deliberately simulation-agnostic: they consume (time, value)
observations and never touch the event loop, so they are equally usable
from unit tests and from live pipelines.
"""

# benchmarks/ledger imports this through the package; ROADMAP item 5(c) retires it.
from repro.metrics.fairness import jain_index  # noqa: F401
