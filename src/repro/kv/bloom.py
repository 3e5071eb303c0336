"""A real Bloom filter for SSTable membership tests.

RocksDB attaches a bloom filter to every SSTable so point lookups skip
tables that cannot contain the key; the false-positive rate determines
how many wasted data reads a miss costs.  This is a standard k-hash
bit-array implementation (double hashing over two splitmix64 mixes of
the key), sized from a target false-positive rate.
"""

from __future__ import annotations

import math

#: 64-bit mixing constants (splitmix64 finalizer).
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK
    return value ^ (value >> 31)


class BloomFilter:
    """Fixed-size Bloom filter over integer keys."""

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items <= 0:
            raise ValueError("expected item count must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("false-positive rate must be in (0, 1)")
        # Standard sizing: m = -n ln(p) / (ln 2)^2, k = (m/n) ln 2.
        bits = max(8, int(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)))
        self.num_bits = bits
        self.num_hashes = max(1, round(bits / expected_items * math.log(2)))
        self._bits = bytearray((bits + 7) // 8)
        self.items_added = 0

    # Kirsch-Mitzenmacher double hashing, g_i = (h1 + i*h2) mod m for
    # i < k, written out in both loops (a probe runs per table per get).
    def add(self, key: int) -> None:
        h1 = _splitmix64(key)
        h2 = _splitmix64(h1) | 1
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            position = (h1 + i * h2) % num_bits
            bits[position >> 3] |= 1 << (position & 7)
        self.items_added += 1

    def might_contain(self, key: int) -> bool:
        """False means definitely absent; True means probably present."""
        h1 = _splitmix64(key)
        h2 = _splitmix64(h1) | 1
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            position = (h1 + i * h2) % num_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @classmethod
    def from_keys(cls, keys, fp_rate: float = 0.01) -> "BloomFilter":
        bloom = cls(max(1, len(keys)), fp_rate)
        for key in keys:
            bloom.add(key)
        return bloom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(bits={self.num_bits}, k={self.num_hashes}, "
            f"items={self.items_added})"
        )
