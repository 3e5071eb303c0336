"""Tests for the YCSB generator and Zipfian sampler."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.ycsb import (
    YCSB_WORKLOADS,
    YcsbOp,
    YcsbSpec,
    YcsbWorkloadGenerator,
    ZipfianGenerator,
    fnv_hash64,
)


# ----------------------------------------------------------------------
# Reference models: the key-draw chain as it was before it was
# flattened (eight hash rounds whatever the value; next_op -> _read_key
# -> _zipf_key -> next -> next_rank, the second-rank threshold
# recomputed per draw).  The live code must draw the same keys from the
# same random numbers.
# ----------------------------------------------------------------------
def reference_fnv_hash64(value: int) -> int:
    result = 0xCBF29CE484222325
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        result ^= octet
        result = (result * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return result


class ReferenceZipfian:
    def __init__(self, item_count, theta, rng):
        self.item_count = item_count
        self.theta = theta
        self.rng = rng
        zeta = lambda n: sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._zetan = zeta(item_count)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / item_count) ** (1.0 - theta)) / (1.0 - zeta(2) / self._zetan)

    def next_rank(self):
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next(self):
        return reference_fnv_hash64(self.next_rank()) % self.item_count


class ReferenceWorkloadGenerator:
    def __init__(self, spec, record_count, rng, theta=0.99):
        self.spec = spec
        self.record_count = record_count
        self.rng = rng
        self.zipf = ReferenceZipfian(record_count, theta, rng)
        self._insert_cursor = record_count

    def next_op(self):
        spec = self.spec
        roll = self.rng.random()
        if roll < spec.read:
            return (YcsbOp.READ, self._read_key())
        roll -= spec.read
        if roll < spec.update:
            return (YcsbOp.UPDATE, self._zipf_key())
        roll -= spec.update
        if roll < spec.insert:
            key = self._insert_cursor
            self._insert_cursor += 1
            return (YcsbOp.INSERT, key)
        roll -= spec.insert
        if roll < spec.scan:
            return (YcsbOp.SCAN, self._zipf_key())
        return (YcsbOp.READ_MODIFY_WRITE, self._zipf_key())

    def _zipf_key(self):
        return self.zipf.next() % self.record_count

    def _read_key(self):
        if self.spec.distribution == "latest":
            offset = self.zipf.next_rank()
            return max(0, self._insert_cursor - 1 - offset)
        return self._zipf_key()


class TestFnvHash:
    def test_small_values_match_the_eight_round_loop(self):
        for value in range(70_000):
            assert fnv_hash64(value) == reference_fnv_hash64(value)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=-(2 ** 70), max_value=2 ** 70))
    def test_any_int_matches_the_eight_round_loop(self, value):
        assert fnv_hash64(value) == reference_fnv_hash64(value)

    def test_octet_boundaries(self):
        for bits in range(80):
            for value in (2 ** bits - 1, 2 ** bits, 2 ** bits + 1, -(2 ** bits)):
                assert fnv_hash64(value) == reference_fnv_hash64(value)


class TestZipfian:
    def test_ranks_in_range(self):
        zipf = ZipfianGenerator(1000, rng=random.Random(0))
        for _ in range(2000):
            assert 0 <= zipf.next_rank() < 1000

    def test_unscrambled_is_head_heavy(self):
        zipf = ZipfianGenerator(10_000, rng=random.Random(1))
        counts = Counter(zipf.next_rank() for _ in range(20_000))
        top10 = sum(counts[i] for i in range(10))
        # Zipf(0.99): the 10 hottest of 10k items draw a large share.
        assert top10 > 0.2 * 20_000

    def test_rank_zero_most_popular(self):
        zipf = ZipfianGenerator(1000, rng=random.Random(2))
        counts = Counter(zipf.next_rank() for _ in range(20_000))
        assert counts[0] == max(counts.values())

    def test_scrambling_spreads_hot_keys(self):
        zipf = ZipfianGenerator(10_000, rng=random.Random(3))
        counts = Counter(zipf.next() for _ in range(20_000))
        hottest = counts.most_common(1)[0][0]
        # The hottest key is (almost surely) not rank 0 after scrambling.
        assert hottest != 0

    def test_determinism(self):
        a = ZipfianGenerator(1000, rng=random.Random(7))
        b = ZipfianGenerator(1000, rng=random.Random(7))
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)

    @pytest.mark.parametrize("item_count", [1, 2, 3])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_tiny_item_counts(self, item_count, scrambled):
        # n = 2 used to divide by 1 - zeta(2)/zeta(n) = 0 at construction.
        zipf = ZipfianGenerator(item_count, rng=random.Random(4))
        draw = zipf.next if scrambled else zipf.next_rank
        assert {draw() for _ in range(3000)} <= set(range(item_count))
        assert {zipf.next_rank() for _ in range(3000)} <= set(range(item_count))

    def test_two_items_split_one_to_half_power_theta(self):
        theta = 0.99
        zipf = ZipfianGenerator(2, theta=theta, rng=random.Random(9))
        n = 40_000
        counts = Counter(zipf.next_rank() for _ in range(n))
        expected = 1.0 / (1.0 + 0.5 ** theta)  # P(rank 0)
        # Binomial sd is ~0.0025 here; allow four.
        assert abs(counts[0] / n - expected) < 0.01
        assert counts[0] + counts[1] == n

    def test_tiny_record_counts_build_a_generator(self):
        for record_count in (1, 2, 3):
            generator = YcsbWorkloadGenerator(
                YCSB_WORKLOADS["A"], record_count=record_count, rng=random.Random(1)
            )
            assert all(0 <= generator.next_op()[1] < record_count for _ in range(500))

    @pytest.mark.parametrize("item_count", [1, 3, 64, 1000])
    def test_next_matches_reference_chain(self, item_count):
        live = ZipfianGenerator(item_count, rng=random.Random(12))
        reference = ReferenceZipfian(item_count, 0.99, random.Random(12))
        assert [live.next() for _ in range(5000)] == [reference.next() for _ in range(5000)]
        assert live.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("item_count", [64, 512])
    def test_long_stream_matches_reference_chain(self, item_count):
        # The key table is built once and read for every draw: a long
        # stream reaches the tail ranks a short one misses.
        live = ZipfianGenerator(item_count, rng=random.Random(13))
        reference = ReferenceZipfian(item_count, 0.99, random.Random(13))
        draws = 50_000
        assert [live.next() for _ in range(draws)] == [reference.next() for _ in range(draws)]
        assert live.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("item_count", [3, 64, 512])
    def test_largest_uniform_draw_matches_reference(self, item_count):
        # At u = 1 - 2**-53 the rank formula's base rounds to 1.0 and
        # the rank is item_count itself, which must still have a key.
        class TopDraw:
            def random(self):
                return 1.0 - 2.0 ** -53

        live = ZipfianGenerator(item_count, rng=TopDraw())
        reference = ReferenceZipfian(item_count, 0.99, TopDraw())
        assert live.next_rank() == reference.next_rank() == item_count
        assert live.next() == reference.next()


class TestWorkloadSpecs:
    def test_core_workloads_present(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_mixes_sum_to_one(self):
        for spec in YCSB_WORKLOADS.values():
            total = spec.read + spec.update + spec.insert + spec.rmw + spec.scan
            assert abs(total - 1.0) < 1e-9

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbSpec("X", read=0.5, update=0.4)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            YcsbSpec("X", read=1.0, distribution="uniform")


class TestWorkloadGenerator:
    def _mix(self, name, n=20_000):
        generator = YcsbWorkloadGenerator(
            YCSB_WORKLOADS[name], record_count=10_000, rng=random.Random(5)
        )
        return Counter(generator.next_op()[0] for _ in range(n))

    def test_workload_a_mix(self):
        counts = self._mix("A")
        assert abs(counts[YcsbOp.READ] / 20_000 - 0.5) < 0.02
        assert abs(counts[YcsbOp.UPDATE] / 20_000 - 0.5) < 0.02

    def test_workload_b_mix(self):
        counts = self._mix("B")
        assert abs(counts[YcsbOp.READ] / 20_000 - 0.95) < 0.01

    def test_workload_c_read_only(self):
        counts = self._mix("C")
        assert counts[YcsbOp.READ] == 20_000

    def test_workload_d_inserts_advance_keyspace(self):
        generator = YcsbWorkloadGenerator(
            YCSB_WORKLOADS["D"], record_count=1000, rng=random.Random(6)
        )
        inserted = [key for op, key in (generator.next_op() for _ in range(5000)) if op is YcsbOp.INSERT]
        assert inserted == sorted(inserted)
        assert inserted[0] == 1000

    def test_workload_d_reads_skew_recent(self):
        generator = YcsbWorkloadGenerator(
            YCSB_WORKLOADS["D"], record_count=10_000, rng=random.Random(7)
        )
        reads = [key for op, key in (generator.next_op() for _ in range(20_000)) if op is YcsbOp.READ]
        recent = sum(1 for key in reads if key > 9000)
        assert recent > len(reads) * 0.5

    def test_workload_f_has_rmw(self):
        counts = self._mix("F")
        assert counts[YcsbOp.READ_MODIFY_WRITE] > 0.45 * 20_000

    def test_keys_in_range(self):
        generator = YcsbWorkloadGenerator(
            YCSB_WORKLOADS["A"], record_count=500, rng=random.Random(8)
        )
        for _ in range(2000):
            op, key = generator.next_op()
            assert 0 <= key < 500

    @pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
    @pytest.mark.parametrize("record_count", [3, 100, 2048])
    def test_stream_matches_reference_chain(self, workload, record_count):
        spec = YCSB_WORKLOADS[workload]
        live = YcsbWorkloadGenerator(spec, record_count, random.Random(21))
        reference = ReferenceWorkloadGenerator(spec, record_count, random.Random(21))
        draws = 4000
        assert [live.next_op() for _ in range(draws)] == [
            reference.next_op() for _ in range(draws)
        ]
        # Same random numbers consumed, not merely the same keys.
        assert live.rng.getstate() == reference.rng.getstate()

    def test_invalid_record_count_rejected(self):
        with pytest.raises(ValueError):
            YcsbWorkloadGenerator(YCSB_WORKLOADS["A"], record_count=0, rng=random.Random(0))
