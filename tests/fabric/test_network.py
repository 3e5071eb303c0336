"""Tests for the link-level network model."""

from __future__ import annotations

import pytest

from repro.fabric.network import Network


@pytest.fixture
def network(sim):
    return Network(sim, bandwidth_bytes_per_us=1000.0, propagation_us=2.0, per_message_us=0.5)


class TestNetwork:
    def test_delivery_time_includes_all_components(self, sim, network):
        port = network.port("client")
        arrivals = []
        network.send(port, 1000, lambda: arrivals.append(sim.now))
        sim.run()
        # 0.5 per-message + 1000/1000 serialisation + 2.0 propagation.
        assert arrivals == [pytest.approx(3.5)]

    def test_sender_serialisation_queues(self, sim, network):
        port = network.port("client")
        arrivals = []
        network.send(port, 1000, lambda: arrivals.append(sim.now))
        network.send(port, 1000, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals[1] - arrivals[0] == pytest.approx(1.5)  # second waits for tx

    def test_different_senders_do_not_serialise(self, sim, network):
        a = network.port("a")
        b = network.port("b")
        arrivals = []
        network.send(a, 1000, lambda: arrivals.append(sim.now))
        network.send(b, 1000, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == arrivals[1]

    def test_per_sender_fifo_ordering(self, sim, network):
        port = network.port("client")
        order = []
        network.send(port, 5000, order.append, "big")
        network.send(port, 10, order.append, "small")
        sim.run()
        assert order == ["big", "small"]

    def test_port_is_cached_by_name(self, network):
        assert network.port("x") is network.port("x")

    def test_port_counters(self, sim, network):
        port = network.port("client")
        network.send(port, 100, lambda: None)
        network.send(port, 200, lambda: None)
        sim.run()
        assert port.bytes_sent == 300
        assert port.messages_sent == 2

    def test_args_passed_to_deliver(self, sim, network):
        got = []
        network.send(network.port("c"), 0, lambda a, b: got.append((a, b)), 1, 2)
        sim.run()
        assert got == [(1, 2)]

    def test_negative_size_rejected(self, network):
        with pytest.raises(ValueError):
            network.send(network.port("c"), -1, lambda: None)

    def test_invalid_configuration_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, bandwidth_bytes_per_us=0.0)
        with pytest.raises(ValueError):
            Network(sim, propagation_us=-1.0)

    def test_send_returns_arrival_time(self, sim, network):
        arrival = network.send(network.port("c"), 1000, lambda: None)
        assert arrival == pytest.approx(3.5)
