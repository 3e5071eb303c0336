"""Tests for address-pattern generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.patterns import AddressRegion, RandomPattern, SequentialPattern


class TestAddressRegion:
    def test_end(self):
        region = AddressRegion(start=100, npages=50)
        assert region.end == 150

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            AddressRegion(start=-1, npages=10)
        with pytest.raises(ValueError):
            AddressRegion(start=0, npages=0)


class TestRandomPattern:
    def test_addresses_stay_in_region(self):
        region = AddressRegion(start=1000, npages=640)
        pattern = RandomPattern(region, io_pages=32, rng=random.Random(0))
        for _ in range(500):
            lba = pattern.next_lba()
            assert region.start <= lba
            assert lba + 32 <= region.end

    def test_addresses_are_io_aligned(self):
        region = AddressRegion(start=0, npages=1024)
        pattern = RandomPattern(region, io_pages=32, rng=random.Random(1))
        for _ in range(100):
            assert pattern.next_lba() % 32 == 0

    def test_covers_region(self):
        region = AddressRegion(start=0, npages=64)
        pattern = RandomPattern(region, io_pages=8, rng=random.Random(2))
        seen = {pattern.next_lba() for _ in range(500)}
        assert seen == {0, 8, 16, 24, 32, 40, 48, 56}

    def test_io_larger_than_region_rejected(self):
        with pytest.raises(ValueError):
            RandomPattern(AddressRegion(0, 16), io_pages=32, rng=random.Random(0))


class TestSequentialPattern:
    def test_strided_progression(self):
        pattern = SequentialPattern(AddressRegion(100, 96), io_pages=32)
        assert [pattern.next_lba() for _ in range(3)] == [100, 132, 164]

    def test_wraps_around(self):
        pattern = SequentialPattern(AddressRegion(0, 64), io_pages=32)
        lbas = [pattern.next_lba() for _ in range(4)]
        assert lbas == [0, 32, 0, 32]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=16, max_value=512))
    def test_never_escapes_region(self, io_pages, region_pages):
        """Property: sequential addressing never crosses region bounds."""
        if io_pages > region_pages:
            io_pages = region_pages
        region = AddressRegion(7, region_pages)
        pattern = SequentialPattern(region, io_pages)
        for _ in range(100):
            lba = pattern.next_lba()
            assert region.start <= lba
            assert lba + io_pages <= region.end
