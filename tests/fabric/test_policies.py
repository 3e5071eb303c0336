"""Unit tests for client-side flow-control policy internals."""

from __future__ import annotations

import pytest

from repro.fabric.policies import (
    CreditClientPolicy,
    PardaClientPolicy,
    UnlimitedClientPolicy,
)


class FakeSession:
    """Just enough session surface for policy unit tests."""

    def __init__(self, sim):
        self.sim = sim
        self.inflight = 0


class FakeRequest:
    def __init__(self, latency=100.0, credit=0):
        self._latency = latency
        self.credit_grant = credit

    @property
    def e2e_latency_us(self):
        return self._latency


class TestCreditPolicy:
    def test_grants_update_budget(self, sim):
        policy = CreditClientPolicy(initial_credit=2)
        session = FakeSession(sim)
        policy.bind(session)
        session.inflight = 2
        assert not policy.allow()
        policy.on_complete(FakeRequest(credit=10))
        assert policy.credit_total == 10
        assert policy.allow()

    def test_zero_grant_keeps_previous_credit(self, sim):
        policy = CreditClientPolicy(initial_credit=4)
        policy.bind(FakeSession(sim))
        policy.on_complete(FakeRequest(credit=0))
        assert policy.credit_total == 4

    def test_invalid_initial_credit_rejected(self):
        with pytest.raises(ValueError):
            CreditClientPolicy(initial_credit=0)


class TestPardaPolicy:
    def _policy(self, **kwargs):
        defaults = dict(
            latency_threshold_us=1000.0, gamma=0.5, alpha=2.0, epoch_us=10.0,
            initial_window=8.0,
        )
        defaults.update(kwargs)
        return PardaClientPolicy(**defaults)

    def test_window_grows_when_latency_below_threshold(self, sim):
        policy = self._policy()
        policy.bind(FakeSession(sim))
        before = policy.window
        for _ in range(5):
            sim.at(sim.now + 20.0, lambda: None)
            sim.run()
            policy.on_complete(FakeRequest(latency=100.0))
        assert policy.window > before

    def test_window_shrinks_when_latency_above_threshold(self, sim):
        policy = self._policy()
        policy.bind(FakeSession(sim))
        before = policy.window
        for _ in range(5):
            sim.at(sim.now + 20.0, lambda: None)
            sim.run()
            policy.on_complete(FakeRequest(latency=10_000.0))
        assert policy.window < before

    def test_window_never_drops_below_one(self, sim):
        policy = self._policy()
        policy.bind(FakeSession(sim))
        for _ in range(50):
            sim.at(sim.now + 20.0, lambda: None)
            sim.run()
            policy.on_complete(FakeRequest(latency=1e6))
        assert policy.window >= 1.0
        assert policy.allow()  # at least one IO may fly

    def test_window_capped_at_max(self, sim):
        policy = self._policy(max_window=16.0)
        policy.bind(FakeSession(sim))
        for _ in range(50):
            sim.at(sim.now + 20.0, lambda: None)
            sim.run()
            policy.on_complete(FakeRequest(latency=1.0))
        assert policy.window <= 16.0

    def test_growth_bounded_by_doubling(self, sim):
        policy = self._policy()
        policy.bind(FakeSession(sim))
        before = policy.window
        sim.at(20.0, lambda: None)
        sim.run()
        policy.on_complete(FakeRequest(latency=1.0))
        assert policy.window <= 2 * before

    def test_updates_only_once_per_epoch(self, sim):
        policy = self._policy(epoch_us=1_000.0)
        policy.bind(FakeSession(sim))
        policy.on_complete(FakeRequest(latency=1.0))
        window_after_first = policy.window
        policy.on_complete(FakeRequest(latency=1.0))
        assert policy.window == window_after_first

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PardaClientPolicy(latency_threshold_us=0.0)
        with pytest.raises(ValueError):
            PardaClientPolicy(gamma=0.0)
        with pytest.raises(ValueError):
            PardaClientPolicy(epoch_us=-1.0)


class TestUnlimitedPolicy:
    def test_always_allows(self, sim):
        policy = UnlimitedClientPolicy()
        session = FakeSession(sim)
        session.inflight = 10**6
        policy.bind(session)
        assert policy.allow()

    def test_rebind_rejected(self, sim):
        policy = UnlimitedClientPolicy()
        policy.bind(FakeSession(sim))
        with pytest.raises(RuntimeError):
            policy.bind(FakeSession(sim))
