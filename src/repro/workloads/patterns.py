"""Address-pattern generators for synthetic workloads."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class AddressRegion:
    """A contiguous LBA range (4 KiB pages) a worker operates on."""

    start: int
    npages: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.npages <= 0:
            raise ValueError("invalid address region")

    @property
    def end(self) -> int:
        return self.start + self.npages


class RandomPattern:
    """Uniform random, IO-size-aligned addressing within a region.

    Alignment to the IO size mirrors fio's default ``blockalign`` and
    keeps large IOs from straddling region boundaries.
    """

    def __init__(self, region: AddressRegion, io_pages: int, rng: random.Random):
        if io_pages <= 0 or io_pages > region.npages:
            raise ValueError("IO size must fit in the region")
        self.region = region
        self.io_pages = io_pages
        self.rng = rng
        self._start = region.start
        self._slots = region.npages // io_pages
        # ``rng.randrange(slots)`` unrolled to the rejection loop it
        # ends in (``Random._randbelow_with_getrandbits``): the same
        # ``getrandbits(k)`` draws in the same order, so the address
        # sequence is the generator's own, minus two Python frames and
        # the argument checks per IO.
        self._getrandbits = rng.getrandbits
        self._bits = self._slots.bit_length()

    def next_lba(self) -> int:
        getrandbits = self._getrandbits
        bits = self._bits
        slots = self._slots
        slot = getrandbits(bits)
        while slot >= slots:
            slot = getrandbits(bits)
        return self._start + slot * self.io_pages


class SequentialPattern:
    """Strided sequential addressing with wrap-around."""

    def __init__(self, region: AddressRegion, io_pages: int):
        if io_pages <= 0 or io_pages > region.npages:
            raise ValueError("IO size must fit in the region")
        self.region = region
        self.io_pages = io_pages
        self._slots = region.npages // io_pages
        self._cursor = 0

    def next_lba(self) -> int:
        lba = self.region.start + self._cursor * self.io_pages
        self._cursor = (self._cursor + 1) % self._slots
        return lba
