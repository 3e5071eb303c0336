#!/usr/bin/env python3
"""Quickstart: two tenants sharing one SSD through the Gimbal switch.

Builds the smallest interesting deployment -- one SmartNIC JBOF with a
single simulated NVMe SSD, two tenants with different IO shapes -- runs
it for a simulated second, and prints each tenant's bandwidth, latency
percentiles, the switch's live state, and the credit each tenant last
received: the per-SSD virtual view Gimbal exposes to clients.

Run:  python examples/quickstart.py
"""

from repro.harness.testbed import Testbed, TestbedConfig
from repro.workloads.fio import FioSpec


def main() -> None:
    # A Gimbal-managed JBOF whose SSD has been preconditioned clean.
    testbed = Testbed(TestbedConfig(scheme="gimbal", condition="clean"))

    # Tenant 1: a latency-sensitive 4 KiB random reader.
    testbed.add_worker(
        FioSpec(name="point-reader", io_pages=1, queue_depth=32, read_ratio=1.0)
    )
    # Tenant 2: a throughput-oriented 128 KiB sequential writer.
    testbed.add_worker(
        FioSpec(
            name="bulk-writer",
            io_pages=32,
            queue_depth=4,
            read_ratio=0.0,
            pattern="sequential",
        )
    )

    results = testbed.run(warmup_us=300_000, measure_us=1_000_000)

    print("Per-tenant results (1 simulated second, after 0.3s warmup):")
    for worker in results["workers"]:
        latency = (
            worker["read_latency"]
            if worker["read_latency"]["count"]
            else worker["write_latency"]
        )
        print(
            f"  {worker['name']:>12}: {worker['bandwidth_mbps']:7.1f} MB/s  "
            f"{worker['iops']:9.0f} IOPS  "
            f"avg {latency['mean']:6.0f}us  p99 {latency['p99']:7.0f}us"
        )

    scheduler = testbed.target.pipelines["ssd0"].scheduler
    metrics = scheduler.metrics()
    print("\nGimbal switch state:")
    for key in ("target_rate_mbps", "write_cost", "read.state", "write.state"):
        value = metrics[key]
        print(f"  {key:>20}: {round(value, 2) if isinstance(value, float) else value}")
    print("\nCredit each tenant last received (piggybacked on its completions):")
    for worker in testbed.workers:
        print(f"  {worker.spec.name:>12}: {worker.session.policy.credit_total}")

    print(f"\nDevice write amplification: {results['write_amplification']['ssd0']:.2f}")


if __name__ == "__main__":
    main()
