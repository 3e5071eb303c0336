"""A device serves a fabric request exactly as it serves a command.

The datapath hands its :class:`FabricRequest` to ``device.submit``
as is; drivers that talk to a device directly use
:class:`DeviceCommand`.  Both show the device the same face (``op``,
``lpn``, ``npages``, ``size_bytes`` in, ``submit_time`` /
``complete_time`` out), so one seeded read/write/trim stream must give
the same completion times, counters and FTL state whichever carrier
brings it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.sim.engine import Simulator
from repro.ssd.device import NullDevice
from tests.ssd.diffkit import as_device_command, as_fabric_request, generate_workload, replay


@pytest.mark.parametrize("condition", ["clean", "fragmented"])
def test_ssd_device_is_carrier_blind(condition):
    schedule = generate_workload(seed=29, ops=500, trim_fraction=0.1)
    as_commands = replay(schedule, condition=condition)
    as_requests = replay(schedule, condition=condition, carrier=as_fabric_request)
    assert not as_commands.diff(as_requests), "\n".join(as_commands.diff(as_requests))
    assert {op for _, op, *_ in as_requests.completions} == {"read", "write", "trim"}


def _replay_on_null_device(schedule, carrier):
    sim = Simulator()
    device = NullDevice(sim)
    completions = []

    def submit(item):
        device.submit(
            carrier(item),
            lambda cmd: completions.append((item.index, cmd.submit_time, cmd.complete_time, sim.now)),
        )

    for item in schedule:
        sim.at_(item.submit_us, submit, item)
    sim.run()
    assert device.outstanding == 0
    return completions, replace(device.stats)


def test_null_device_is_carrier_blind():
    schedule = generate_workload(seed=29, ops=200, trim_fraction=0.1)
    as_commands = _replay_on_null_device(schedule, as_device_command)
    as_requests = _replay_on_null_device(schedule, as_fabric_request)
    assert as_commands == as_requests
    assert len(as_requests[0]) == len(schedule)
    assert all(done == now == submit for _, submit, done, now in as_requests[0])
