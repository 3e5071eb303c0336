"""YCSB core workloads over a Zipfian request distribution.

The RocksDB evaluation (Section 5.6) uses YCSB with 10M 1 KiB
key-value pairs and Zipfian skew 0.99.  This module provides:

* :class:`ZipfianGenerator` -- the standard YCSB rejection-free
  Zipfian sampler (Gray et al.): the rank, and the scrambled key that
  decorrelates popularity from key order, read from a rank -> key
  table each generator hashes once (one YCSB op draws one key);
* the five core workload mixes the paper runs (A, B, C, D, F);
* :class:`YcsbWorkloadGenerator` -- an operation stream
  (op, key) suitable for driving the KV store.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Dict, Tuple

#: FNV-style constant used by YCSB's key scrambling.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: ``_FNV_PRIME ** k mod 2**64``: what ``k`` zero octets do to the hash
#: (``x ^ 0 == x``, so each such round is one multiply by the prime).
_FNV_ZERO_OCTETS = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))


def fnv_hash64(value: int) -> int:
    """YCSB's 64-bit FNV-1a over the integer's eight low octets.

    Octets are hashed while any are non-zero; the zero octets above a
    small value's last non-zero one are folded into a single multiply.
    """
    result = _FNV_OFFSET
    left = 8
    while value and left:
        result = ((result ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
        value >>= 8
        left -= 1
    return (result * _FNV_ZERO_OCTETS[left]) & _MASK64


class ZipfianGenerator:
    """Samples {0, ..., n-1} with P(i) proportional to 1/(i+1)^theta.

    Implements the Gray et al. constant-time method YCSB uses:
    :meth:`next_rank` draws the rank (0 = hottest), :meth:`next` the
    key YCSB's FNV scrambling maps that rank to, so popular items
    spread over the key space.
    """

    def __init__(
        self,
        item_count: int,
        theta: float = 0.99,
        rng: random.Random | None = None,
    ):
        if item_count <= 0:
            raise ValueError("item count must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.item_count = item_count
        self.rng = rng or random.Random(0)
        self._zetan = self._zeta(item_count, theta)
        self._alpha = 1.0 / (1.0 - theta)
        if item_count > 2:
            # u * zetan in [1, this) is rank 1.
            self._rank1_below = 1.0 + 0.5 ** theta
            self._eta = (1.0 - (2.0 / item_count) ** (1.0 - theta)) / (
                1.0 - self._zeta(2, theta) / self._zetan
            )
        else:
            # Ranks 0 and 1 are the whole range, so the general branch
            # is never taken; its eta would divide by 1 - zeta(2)/zeta(n),
            # which is 0 at n = 2.
            self._rank1_below = math.inf
            self._eta = 0.0
        # The scrambled key of every rank; the rank formula gives
        # item_count itself when its base rounds to 1.0, so it has one too.
        self._keys = [fnv_hash64(rank) % item_count for rank in range(item_count + 1)]

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_rank(self) -> int:
        """The Zipf rank (0 = hottest)."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._rank1_below:
            return 1
        return int(self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next(self) -> int:
        """The next key: :meth:`next_rank` inline (this is the per-op
        key draw), then the rank's scrambled key."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return self._keys[0]
        if uz < self._rank1_below:
            return self._keys[1]
        return self._keys[int(self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha)]


class YcsbOp(enum.Enum):
    """Operation types across the core workloads."""

    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    READ_MODIFY_WRITE = "rmw"
    SCAN = "scan"


#: The members as module globals, for the reason ``repro.ssd.commands``
#: gives for ``OP_*``: the generator and the KV client test one per op.
YCSB_READ = YcsbOp.READ
YCSB_UPDATE = YcsbOp.UPDATE
YCSB_INSERT = YcsbOp.INSERT
YCSB_READ_MODIFY_WRITE = YcsbOp.READ_MODIFY_WRITE
YCSB_SCAN = YcsbOp.SCAN


@dataclass(frozen=True)
class YcsbSpec:
    """One core workload's operation mix."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0
    scan: float = 0.0
    #: Scan lengths are uniform in [1, scan_max_length] (YCSB default).
    scan_max_length: int = 100
    #: "latest" biases reads toward recently inserted keys (workload D).
    distribution: str = "zipfian"

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.rmw + self.scan
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation mix of {self.name} must sum to 1 (got {total})")
        if self.distribution not in ("zipfian", "latest"):
            raise ValueError("distribution must be 'zipfian' or 'latest'")
        if self.scan_max_length <= 0:
            raise ValueError("scan_max_length must be positive")


#: The core workloads: the five the paper evaluates (A/B/C/D/F,
#: Section 5.6) plus the scan-heavy E for library completeness.
YCSB_WORKLOADS: Dict[str, YcsbSpec] = {
    "A": YcsbSpec("A", read=0.5, update=0.5),
    "B": YcsbSpec("B", read=0.95, update=0.05),
    "C": YcsbSpec("C", read=1.0),
    "D": YcsbSpec("D", read=0.95, insert=0.05, distribution="latest"),
    "E": YcsbSpec("E", scan=0.95, insert=0.05),
    "F": YcsbSpec("F", read=0.5, rmw=0.5),
}


class YcsbWorkloadGenerator:
    """Generates (op, key) pairs for one DB instance."""

    def __init__(self, spec: YcsbSpec, record_count: int, rng: random.Random):
        if record_count <= 0:
            raise ValueError("record count must be positive")
        self.spec = spec
        self.rng = rng
        self.zipf = ZipfianGenerator(record_count, rng=rng)
        self._insert_cursor = record_count
        # The mix, read on every op.
        self._read = spec.read
        self._update = spec.update
        self._insert = spec.insert
        self._scan = spec.scan
        self._latest = spec.distribution == "latest"

    def next_op(self) -> Tuple[YcsbOp, int]:
        """Draw the next operation and its key."""
        roll = self.rng.random()
        if roll < self._read:
            if self._latest:
                # Workload D: skew toward the most recent inserts.
                offset = self.zipf.next_rank()
                return (YCSB_READ, max(0, self._insert_cursor - 1 - offset))
            return (YCSB_READ, self.zipf.next())
        roll -= self._read
        if roll < self._update:
            return (YCSB_UPDATE, self.zipf.next())
        roll -= self._update
        if roll < self._insert:
            key = self._insert_cursor
            self._insert_cursor += 1
            return (YCSB_INSERT, key)
        roll -= self._insert
        if roll < self._scan:
            return (YCSB_SCAN, self.zipf.next())
        return (YCSB_READ_MODIFY_WRITE, self.zipf.next())

    def next_scan_length(self) -> int:
        """Uniform scan length in [1, scan_max_length] (workload E)."""
        return self.rng.randint(1, self.spec.scan_max_length)
