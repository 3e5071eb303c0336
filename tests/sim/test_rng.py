"""Tests for named, seeded RNG streams."""

from __future__ import annotations

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_different_names_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "stream") < 2**64


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        rngs = RngRegistry(seed=7)
        assert rngs.stream("w0") is rngs.stream("w0")

    def test_streams_are_independent_of_creation_order(self):
        first = RngRegistry(seed=7)
        a_then_b = (first.stream("a").random(), first.stream("b").random())
        second = RngRegistry(seed=7)
        b_then_a = (second.stream("b").random(), second.stream("a").random())
        assert a_then_b[0] == b_then_a[1]
        assert a_then_b[1] == b_then_a[0]

    def test_same_seed_reproduces_draws(self):
        draws1 = [RngRegistry(seed=3).stream("x").random() for _ in range(1)]
        draws2 = [RngRegistry(seed=3).stream("x").random() for _ in range(1)]
        assert draws1 == draws2

    def test_different_seed_changes_draws(self):
        a = RngRegistry(seed=1).stream("x").random()
        b = RngRegistry(seed=2).stream("x").random()
        assert a != b
