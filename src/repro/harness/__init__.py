"""Experiment harness: testbed construction and per-figure drivers.

:mod:`repro.harness.testbed` builds the paper's rack -- client hosts,
a 100 Gbps network, and SmartNIC JBOF targets -- for any of the five
configurations (gimbal, reflex, parda, flashfq, vanilla).  The modules
under :mod:`repro.harness.experiments` each regenerate one table or
figure of the paper and are what the benchmark suite calls.
"""
