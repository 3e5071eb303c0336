"""Structured observability for the simulator.

Every figure this repo regenerates flows through the event kernel and
the metrics layer; this package makes those internals *visible* so a
run can be audited rather than trusted:

* :mod:`repro.obs.trace` -- a :class:`TraceBuffer` of typed trace
  events (IO submit/dispatch/complete, congestion-state transitions,
  threshold moves, token-bucket refills/denials, GC start/end, credit
  grants) with JSONL export or streaming;
* :mod:`repro.obs.registry` -- a :class:`Registry` of named
  counters/gauges that components register into;
* :mod:`repro.obs.probe` -- a :class:`KernelProbe` profiling the event
  loop itself (per-callback fire counts, heap high-water mark,
  wall-clock per simulated second);
* :mod:`repro.obs.session` -- :func:`capture`, the one-call wiring
  used by the CLI's ``--trace``/``--stats`` flags;
* :mod:`repro.obs.report` -- summarises a JSONL run journal into
  per-tenant and per-component tables (``python -m repro.obs.report``).

Tracing is zero-cost when disabled: components reach their tracer via
``sim.tracer`` which defaults to None, and every emit site is guarded
by a None check, so an uninstrumented run executes no tracing code
beyond that check.
"""

from repro.obs.session import current_session

# benchmarks/ledger imports this through the package; ROADMAP item 3(c) retires it.
from repro.obs.session import capture  # noqa: F401


def bump(name: str, amount=1) -> None:
    """Increment a counter on the active session's registry, if any.

    The harness layers (sweep runner, result cache, suite
    orchestrator) run outside any simulator, so they cannot reach a
    tracer through ``sim.tracer``; this is their equivalent one-liner
    for counters.  A no-op when no session is capturing, so callers
    never need their own ``current_session() is not None`` guard.
    """
    session = current_session()
    if session is not None and amount:
        session.registry.counter(name).inc(amount)
