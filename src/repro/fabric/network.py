"""Link-level network model.

The testbed's fabric is a 100 Gbps Ethernet/RDMA network through one
switch.  The model keeps what matters for the experiments:

* **serialisation** -- a message occupies its sender's port for
  ``bytes / bandwidth``; concurrent messages from one host queue
  (FCFS, analytic ``busy_until`` booking like the SSD channels);
* **propagation + switching** -- a fixed one-way delay;
* **per-message overhead** -- NIC/driver handling independent of size.

In-network congestion between *different* senders is out of scope,
matching the paper: "Gimbal ... relies on the remote transport
protocol (e.g., RDMA) to address in-network contention".
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator

#: 100 Gbps in bytes per microsecond.
DEFAULT_BANDWIDTH_BYTES_PER_US = 100e9 / 8 / 1e6


class NetworkPort:
    """One host's attachment point; owns the transmit serialisation resource."""

    def __init__(self, name: str):
        self.name = name
        self.tx_busy_until = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkPort({self.name})"


class Network:
    """The switch fabric connecting client hosts and storage nodes."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US,
        propagation_us: float = 1.5,
        per_message_us: float = 0.05,
    ):
        if bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0 or per_message_us < 0:
            raise ValueError("delays must be non-negative")
        self.sim = sim
        self.bandwidth = bandwidth_bytes_per_us
        self.propagation_us = propagation_us
        self.per_message_us = per_message_us
        self._ports: dict[str, NetworkPort] = {}
        # Wire deliveries all land on one trampoline, pre-bound by the
        # population; each delivery carries its own ``(target function,
        # arguments)`` pair as the event's one payload.
        self._deliver_pop = sim.population(self._run_delivery)

    def port(self, name: str) -> NetworkPort:
        """Return (creating on first use) the port for host ``name``."""
        existing = self._ports.get(name)
        if existing is None:
            existing = NetworkPort(name)
            self._ports[name] = existing
        return existing

    def send(
        self,
        src: NetworkPort,
        nbytes: int,
        deliver: Callable[..., Any],
        *args: Any,
    ) -> float:
        """Transmit ``nbytes`` from ``src``; run ``deliver(*args)`` on arrival.

        Returns the delivery time.  Ordering per sender is FIFO because
        serialisation books the port's ``tx_busy_until`` horizon.
        """
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        start = max(self.sim.now, src.tx_busy_until)
        tx_done = start + self.per_message_us + nbytes / self.bandwidth
        src.tx_busy_until = tx_done
        src.bytes_sent += nbytes
        src.messages_sent += 1
        arrival = tx_done + self.propagation_us
        self._deliver_pop.add(arrival, (deliver, args))
        return arrival

    def _run_delivery(self, delivery: tuple) -> None:
        deliver, args = delivery
        deliver(*args)

    def metrics(self) -> dict:
        """Link counters of every port that exists now."""
        out = {}
        for port in self._ports.values():
            out[f"{port.name}.bytes_sent"] = port.bytes_sent
            out[f"{port.name}.messages_sent"] = port.messages_sent
        return out
