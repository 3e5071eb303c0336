"""Named gauges, registered per component.

A :class:`Registry` is the stats side of the observability layer: the
trace journal answers "what happened, in order"; the registry answers
"where does the system stand now".  Components expose a
``register_metrics(registry, prefix)`` method that installs gauges
(:class:`Gauge`) -- *pull* metrics: zero-argument callables sampled
only when the registry is read, so registering them adds nothing to
the simulation hot path.

Names are dotted paths (``ssd.ssd0.write_amplification``); rendering
groups them by their first segment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple


class Gauge:
    """A named pull metric; ``fn`` is sampled at read time."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], object]):
        self.name = name
        self.fn = fn

    def read(self) -> object:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name})"


class Registry:
    """A namespace of gauges."""

    def __init__(self) -> None:
        self._gauges: Dict[str, Gauge] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], object]) -> Gauge:
        """Register ``fn`` as the gauge called ``name``.

        Re-registering an existing name replaces the callable: a
        component rebuilt mid-session (e.g. a fresh testbed) simply
        takes over its names.
        """
        created = Gauge(name, fn)
        self._gauges[name] = created
        return created

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._gauges)

    def snapshot(self) -> Dict[str, object]:
        """All gauges as ``{name: value}``, sampled now."""
        return {name: gauge.read() for name, gauge in self._gauges.items()}

    def render(self, title: str = "metrics") -> str:
        """A grouped, aligned plain-text dump of every metric."""
        snapshot = self.snapshot()
        groups: Dict[str, List[Tuple[str, object]]] = {}
        for name in sorted(snapshot):
            head, _, rest = name.partition(".")
            groups.setdefault(head, []).append((rest or head, snapshot[name]))
        lines = [title]
        for head in sorted(groups):
            lines.append(f"  [{head}]")
            width = max(len(key) for key, _ in groups[head])
            for key, value in groups[head]:
                lines.append(f"    {key.ljust(width)}  {_format(value)}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._gauges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({len(self._gauges)} gauges)"


def _format(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)
