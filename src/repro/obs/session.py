"""One observability session: tracer + registry + kernel probe.

Experiment drivers build their own :class:`~repro.harness.testbed.Testbed`
internally, so observability cannot be threaded through ``run(...)``
signatures without touching every driver.  Instead a session installs
itself as the *current* session; any simulator stood up while it is
active gets the session's tracer and probe attached (the
:class:`~repro.sim.engine.Simulator` constructor checks
:func:`current_session`), the Testbed and KvCluster constructors
add their components to the session's metrics registry as sources, and
each client initiator adds itself.

Typical use -- exactly what ``python -m repro run <exp> --trace
out.jsonl --stats`` does::

    from repro.obs.session import capture

    with capture(trace_path="out.jsonl") as session:
        results = fig09_dynamic.run()
    print(session.stats_report())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.obs.probe import KernelProbe
from repro.obs.registry import Registry
from repro.obs.trace import TraceBuffer

_current: Optional["ObsSession"] = None


def current_session() -> Optional["ObsSession"]:
    """The active session, or None when observability is off."""
    return _current


class ObsSession:
    """Bundles the three observability facets for one capture window."""

    def __init__(self, trace_path: Optional[str] = None):
        self.registry = Registry()
        self.probe = KernelProbe()
        self.registry.add("kernel", self.probe)
        self.trace_path = trace_path
        self._sink = None
        self.tracer: Optional[TraceBuffer] = None
        if trace_path is not None:
            self._sink = open(trace_path, "w", encoding="utf-8")
            self.tracer = TraceBuffer(self._sink)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_simulator(self, sim) -> None:
        """Install the tracer and kernel probe on ``sim``."""
        sim.tracer = self.tracer
        sim.probe = self.probe

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def trace_events_emitted(self) -> int:
        return self.tracer.emitted if self.tracer is not None else 0

    def stats_report(self) -> str:
        parts: List[str] = [self.registry.render(title="run metrics")]
        parts.append(self.probe.summary())
        if self.tracer is not None and self.tracer.counts_by_type:
            lines = ["trace events"]
            width = max(len(key) for key in self.tracer.counts_by_type)
            for key in sorted(self.tracer.counts_by_type):
                lines.append(f"  {key.ljust(width)}  {self.tracer.counts_by_type[key]}")
            parts.append("\n".join(lines))
        return "\n".join(parts)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObsSession(trace={self.trace_path!r}, metrics={self.registry!r})"


@contextmanager
def capture(trace_path: Optional[str] = None) -> Iterator[ObsSession]:
    """Make a fresh session current for the duration of the block.

    Sessions nest: an inner capture shadows the outer one and restores
    it on exit, so a capturing test can run inside a capturing CLI.
    """
    global _current
    session = ObsSession(trace_path=trace_path)
    previous = _current
    _current = session
    try:
        yield session
    finally:
        _current = previous
        session.close()
