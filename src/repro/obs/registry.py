"""Named metrics, read off their sources.

A :class:`Registry` is the stats side of the observability layer: the
trace journal answers "what happened, in order"; the registry answers
"where does the system stand now".  It holds *sources*: components
with a ``metrics()`` method returning ``{name: value}``, each added
under a prefix.  Nothing is sampled until the registry is read, so
adding a source costs the simulation hot path nothing, and a source
reports whatever it holds at read time (a port created after the add,
a stats object swapped by a reset).

Names are dotted paths (``ssd.ssd0.write_amplification``); rendering
groups them by their first segment.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Registry:
    """Sources of metrics, keyed by the prefix of their names."""

    def __init__(self) -> None:
        self._sources: Dict[str, object] = {}

    def add(self, prefix: str, source) -> None:
        """Read ``source.metrics()`` under ``prefix`` from now on.

        A later source under a prefix already held replaces the earlier
        one: a component rebuilt mid-session (a fresh testbed) takes
        over its prefix.
        """
        self._sources[prefix] = source

    def snapshot(self) -> Dict[str, object]:
        """Every source's metrics as ``{prefix.name: value}``, read now."""
        return {
            f"{prefix}.{name}": value
            for prefix, source in self._sources.items()
            for name, value in source.metrics().items()
        }

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({list(self._sources)})"


def _format(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)
