"""Tests for the Bloom filter."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.bloom import BloomFilter, _splitmix64


# ----------------------------------------------------------------------
# Reference model: the filter's probe as it was written before it was
# flattened (a position generator consumed by ``all``).  The live
# filter must set the same bits and answer every probe the same.
# ----------------------------------------------------------------------
def reference_positions(bloom, key):
    h1 = _splitmix64(key)
    h2 = _splitmix64(h1) | 1
    for i in range(bloom.num_hashes):
        yield (h1 + i * h2) % bloom.num_bits


def reference_bits(bloom, keys):
    bits = bytearray(len(bloom._bits))
    for key in keys:
        for position in reference_positions(bloom, key):
            bits[position >> 3] |= 1 << (position & 7)
    return bits


def reference_might_contain(bloom, key):
    return all(
        bloom._bits[position >> 3] & (1 << (position & 7))
        for position in reference_positions(bloom, key)
    )


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=1000, fp_rate=0.01)
        for key in range(1000):
            bloom.add(key)
        for key in range(1000):
            assert bloom.might_contain(key)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(expected_items=2000, fp_rate=0.01)
        for key in range(2000):
            bloom.add(key)
        rng = random.Random(0)
        probes = 20_000
        false_positives = sum(
            1 for _ in range(probes) if bloom.might_contain(rng.randrange(10**9) + 10**6)
        )
        assert false_positives / probes < 0.03  # target 1%, allow slack

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=100)
        assert not bloom.might_contain(42)

    def test_from_keys(self):
        bloom = BloomFilter.from_keys([1, 5, 9])
        assert bloom.items_added == 3
        assert bloom.might_contain(5)

    def test_from_empty_keys(self):
        bloom = BloomFilter.from_keys([])
        assert not bloom.might_contain(0)

    def test_sizing_scales_with_items(self):
        small = BloomFilter(expected_items=100, fp_rate=0.01)
        large = BloomFilter(expected_items=10_000, fp_rate=0.01)
        assert large.num_bits > 50 * small.num_bits // 2

    def test_tighter_fp_rate_uses_more_bits(self):
        loose = BloomFilter(expected_items=1000, fp_rate=0.1)
        tight = BloomFilter(expected_items=1000, fp_rate=0.001)
        assert tight.num_bits > loose.num_bits
        assert tight.num_hashes >= loose.num_hashes

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0)
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_rate=1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=500))
    def test_property_no_false_negatives(self, keys):
        """Property: every added key is reported as possibly present."""
        bloom = BloomFilter.from_keys(keys)
        for key in keys:
            assert bloom.might_contain(key)


class TestMatchesGeneratorReference:
    def test_random_filters_and_probes(self):
        rng = random.Random(17)
        answers = set()
        for _ in range(150):
            expected = rng.randint(1, 400)
            bloom = BloomFilter(expected, fp_rate=rng.choice((0.001, 0.01, 0.05, 0.2, 0.6)))
            # From nearly empty to twice the sized load, so probes hit
            # sparse, typical and saturated bit arrays.
            keys = [rng.getrandbits(64) for _ in range(rng.randint(0, 2 * expected))]
            for key in keys:
                bloom.add(key)
            assert bloom._bits == reference_bits(bloom, keys)
            probes = keys[:50] + [rng.getrandbits(rng.choice((8, 32, 64, 70))) for _ in range(300)]
            for key in probes:
                answer = bloom.might_contain(key)
                assert answer == reference_might_contain(bloom, key)
                answers.add(answer)
        assert answers == {True, False}

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=80),
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=80),
    )
    def test_property_matches_reference(self, expected, keys, probes):
        bloom = BloomFilter(expected, fp_rate=0.05)
        for key in keys:
            bloom.add(key)
        assert bloom._bits == reference_bits(bloom, keys)
        for key in keys + probes:
            assert bloom.might_contain(key) == reference_might_contain(bloom, key)
