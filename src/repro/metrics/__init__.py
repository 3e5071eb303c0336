"""Measurement utilities shared by the models and the experiment harness.

These are deliberately simulation-agnostic: they consume (time, value)
observations and never touch the event loop, so they are equally usable
from unit tests and from live pipelines.
"""

from repro.metrics.ewma import Ewma
from repro.metrics.fairness import f_util, jain_index, utilization_deviation
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.throughput import IntervalSeries, ThroughputMonitor

__all__ = [
    "Ewma",
    "LatencyHistogram",
    "ThroughputMonitor",
    "IntervalSeries",
    "f_util",
    "jain_index",
    "utilization_deviation",
]
