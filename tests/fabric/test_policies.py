"""Unit tests for client-side flow-control policy internals."""

from __future__ import annotations

import pytest

from repro.fabric.policies import (
    INITIAL_CREDIT,
    PARDA_EPOCH_US,
    PARDA_MAX_WINDOW,
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
        policy = CreditClientPolicy()
        session = FakeSession(sim)
        policy.bind(session)
        session.inflight = INITIAL_CREDIT
        assert not policy.allow()
        policy.on_complete(FakeRequest(credit=10))
        assert policy.credit_total == 10
        assert policy.allow()

    def test_zero_grant_keeps_previous_credit(self, sim):
        policy = CreditClientPolicy()
        policy.bind(FakeSession(sim))
        policy.on_complete(FakeRequest(credit=0))
        assert policy.credit_total == INITIAL_CREDIT


class TestPardaPolicy:
    @staticmethod
    def _complete_epochs(sim, policy, latency, epochs):
        """Feed one completion of ``latency`` per epoch, an epoch apart."""
        for _ in range(epochs):
            sim.at(sim.now + PARDA_EPOCH_US, lambda: None)
            sim.run()
            policy.on_complete(FakeRequest(latency=latency))

    def test_window_grows_when_latency_below_threshold(self, sim):
        policy = PardaClientPolicy()
        policy.bind(FakeSession(sim))
        before = policy.window
        self._complete_epochs(sim, policy, 100.0, 5)
        assert policy.window > before

    def test_window_shrinks_when_latency_above_threshold(self, sim):
        policy = PardaClientPolicy()
        policy.bind(FakeSession(sim))
        before = policy.window
        self._complete_epochs(sim, policy, 10_000.0, 5)
        assert policy.window < before

    def test_window_never_drops_below_one(self, sim):
        policy = PardaClientPolicy()
        policy.bind(FakeSession(sim))
        self._complete_epochs(sim, policy, 1e6, 50)
        assert policy.window >= 1.0
        assert policy.allow()  # at least one IO may fly

    def test_window_capped_at_max(self, sim):
        policy = PardaClientPolicy()
        policy.bind(FakeSession(sim))
        self._complete_epochs(sim, policy, 1.0, 50)
        assert policy.window == PARDA_MAX_WINDOW == 512.0

    def test_growth_bounded_by_doubling(self, sim):
        policy = PardaClientPolicy()
        policy.bind(FakeSession(sim))
        before = policy.window
        self._complete_epochs(sim, policy, 1.0, 1)
        assert policy.window <= 2 * before

    def test_updates_only_once_per_epoch(self, sim):
        policy = PardaClientPolicy()
        policy.bind(FakeSession(sim))
        policy.on_complete(FakeRequest(latency=1.0))
        window_after_first = policy.window
        policy.on_complete(FakeRequest(latency=1.0))
        assert policy.window == window_after_first


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
