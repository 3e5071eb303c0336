#!/usr/bin/env python3
"""Watch Gimbal's congestion control and write-cost estimator adapt.

Reproduces the paper's Figure 9 storyline interactively: readers run
rate-capped, write workers arrive one at a time, and the script prints
the switch's internal state each phase -- EWMA latencies, the dynamic
threshold, the target rate, and the estimated write cost dropping to
~1 while the device buffer absorbs writes and snapping back toward the
worst case once writers overwhelm it.

Run:  python examples/congestion_dynamics.py
"""

from repro.harness.testbed import Testbed, TestbedConfig
from repro.ssd.commands import IoOp
from repro.workloads.fio import FioSpec

PHASE_US = 400_000.0


def main() -> None:
    testbed = Testbed(TestbedConfig(scheme="gimbal", condition="fragmented"))
    readers = [
        testbed.add_worker(
            FioSpec(f"rd{i}", io_pages=32, queue_depth=4, read_ratio=1.0,
                    rate_limit_mbps=200.0),
            region_pages=1600,
        )
        for i in range(6)
    ]
    writers = [
        testbed.add_worker(
            FioSpec(f"wr{i}", io_pages=32, queue_depth=4, read_ratio=0.0,
                    pattern="sequential", rate_limit_mbps=60.0),
            region_pages=1600,
        )
        for i in range(6)
    ]
    sim = testbed.sim
    scheduler = testbed.target.pipelines["ssd0"].scheduler

    def report(phase: str) -> None:
        read_monitor = scheduler.monitors[IoOp.READ]
        write_monitor = scheduler.monitors[IoOp.WRITE]
        metrics = scheduler.metrics()
        print(
            f"t={sim.now / 1e6:5.2f}s {phase:<22} "
            f"read ewma {read_monitor.ewma_latency_us:6.0f}us "
            f"(thresh {read_monitor.threshold:6.0f}) | "
            f"write ewma {write_monitor.ewma_latency_us:6.0f}us | "
            f"write cost {scheduler.write_cost.cost:4.1f} | "
            f"target {metrics['target_rate_mbps']:6.0f} MB/s"
        )

    print("6 readers @200MB/s cap; writers @60MB/s cap arrive one per phase.\n")
    for reader in readers:
        reader.start()
    sim.run(until_us=sim.now + PHASE_US)
    report("readers only")
    for index, writer in enumerate(writers):
        writer.start()
        sim.run(until_us=sim.now + PHASE_US)
        report(f"+ writer {index + 1}")
    for index, reader in enumerate(readers):
        reader.stop()
        sim.run(until_us=sim.now + PHASE_US)
        report(f"- reader {index + 1}")


if __name__ == "__main__":
    main()
