"""Named, seeded random-number streams.

Every stochastic component (each workload worker, the FTL victim
picker, the network jitter model, ...) draws from its *own* stream
derived from a root seed and a stable name.  This keeps runs
reproducible and, more importantly, keeps streams independent: adding
a new consumer of randomness does not perturb the draws any existing
component sees.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 rather than ``hash()`` so the derivation is stable
    across processes and Python versions.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """A factory of independent ``random.Random`` streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("worker-0")
    >>> b = rngs.stream("worker-1")
    >>> a is rngs.stream("worker-0")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
