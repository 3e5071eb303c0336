"""Structured observability for the simulator.

Every figure this repo regenerates flows through the event kernel and
the metrics layer; this package makes those internals *visible* so a
run can be audited rather than trusted:

* :mod:`repro.obs.trace` -- a :class:`TraceBuffer` that streams typed
  trace events (congestion-state transitions, threshold moves,
  token-bucket refills/denials, GC start/end, credit grants) to a JSONL
  journal;
* :mod:`repro.obs.registry` -- a :class:`Registry` of metrics sources,
  each a component whose ``metrics()`` is read when the registry is;
  each client host (``client.<host>``) reports the per-op latency
  waterfall its completed requests' stamps add up to;
* :mod:`repro.obs.probe` -- a :class:`KernelProbe` profiling the event
  loop itself (per-callback fire counts, heap high-water mark,
  wall-clock per simulated second);
* :mod:`repro.obs.session` -- :func:`capture`, the one-call wiring
  used by the CLI's ``--trace``/``--stats`` flags;
* :mod:`repro.obs.report` -- summarises a JSONL run journal into
  per-type and per-component tables (``python -m repro.obs.report``).

Observation is near zero-cost when disabled: components reach their
tracer via ``sim.tracer`` which defaults to None, every emit site is
guarded by a None check, and a client folds latency stages only if it
was built inside a session, so an uninstrumented run executes nothing
of this package beyond those checks.

Only the simulation reports here.  The sweep runner, the result cache
and the suite orchestrator import nothing from this package: a run's
hits, misses and timings are its
:class:`~repro.harness.parallel.SuiteResult` and its one line in the
result cache's journal.
"""

# benchmarks/ledger imports this through the package; ROADMAP item 5(c) retires it.
from repro.obs.session import capture  # noqa: F401
