"""What one IO costs the host, pinned.

Host speed is judged by the perf ledger (``norm_wall``), which a test
cannot assert on.  The two counts behind it can be: kernel events per
IO and Python-level calls per IO (``call`` + ``c_call`` profile events)
on the ledger's ``fio-read`` shape -- one tenant, vanilla pass-through,
4 KiB random read, QD32.  They repeat exactly, so a change to the round
trip between ``TenantSession.submit`` and ``FioWorker._on_complete``
states its cost here, in the diff.
"""

from __future__ import annotations

import sys

from repro.harness.testbed import Testbed, TestbedConfig
from repro.workloads.fio import FioSpec

IOS = 2_000

#: Five events per IO: capsule arrival, device submit (the pass-through
#: scheduler is fused into it), device completion, response send, reply.
EVENTS_PER_IO = 5

#: Calls per IO, by where they are made.  The region below is sized so
#: the address draw's rejection loop all but never repeats; the ledger's
#: 8192-page region redraws every other IO and reads 36.
#:
#: ====================  ==  ==========================================
#: kernel                15  5 x (heappop + heappush + at_/population add)
#: fio worker             6  _on_complete, _issue_now, next_lba,
#:                           getrandbits, throughput.record, submit
#: session                3  deliver_completion; the request's
#:                           __init__ and __post_init__ (the id draw is
#:                           a slot wrapper, which raises no profile
#:                           event)
#: pipeline               4  handle_arrival, device_submit,
#:                           _device_completed, _send_response
#: device                 2  submit, _complete
#: namespace lookup       1  dict.get
#: latency histograms     4  2 x (record + math.log)
#: ====================  ==  ==========================================
CALLS_PER_IO = 35


def _count_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_calls_and_events_per_io_are_pinned():
    testbed = Testbed(TestbedConfig(scheme="vanilla", condition="clean", seed=42))
    # 4095 slots: a 12-bit draw is rejected once in 4096 IOs.
    worker = testbed.add_worker(
        FioSpec("reader", io_pages=1, queue_depth=32, read_ratio=1.0), region_pages=4095
    )
    sim = testbed.sim
    session = worker.session

    def closed_loop():
        """Whole lives only: issue at least ``IOS`` IOs, then drain."""
        target = session.submitted + IOS
        worker.start()
        while session.submitted < target:
            sim.run(until_us=sim.now + 100.0)
        worker.stop()
        sim.run()

    closed_loop()  # warm-up: sizes the tables
    assert session.inflight == 0
    ios_before, events_before = session.completed, sim._seq
    calls = _count_calls(closed_loop)
    ios = session.completed - ios_before
    assert session.inflight == 0 and ios >= IOS

    assert sim._seq - events_before == EVENTS_PER_IO * ios
    # The remainder is the loop around the IOs (start, stop, one
    # ``run`` per 100 us slice) plus the rare redrawn address.
    per_io, around = divmod(calls, ios)
    assert per_io == CALLS_PER_IO, f"{calls} calls for {ios} IOs"
    assert around < 0.1 * ios, f"{calls} calls for {ios} IOs"
