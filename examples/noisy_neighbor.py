#!/usr/bin/env python3
"""Noisy neighbour: how each multi-tenancy scheme protects a victim.

The motivating scenario from the paper's Section 2.3 (Figure 4): a
latency-sensitive tenant issuing 4 KiB random reads shares a
*fragmented* SSD with an aggressive 4 KiB random writer.  On an
unmanaged target the writer's garbage-collection traffic wrecks the
reader; the comparison schemes help partially; Gimbal's write-cost
estimation and virtual slots restore the reader's share.

Run:  python examples/noisy_neighbor.py
"""

from repro.harness.testbed import SCHEMES, Testbed, TestbedConfig
from repro.workloads.fio import FioSpec


def run_scheme(scheme: str):
    testbed = Testbed(TestbedConfig(scheme=scheme, condition="fragmented"))
    victim = testbed.add_worker(
        FioSpec(name="victim-reader", io_pages=1, queue_depth=32, read_ratio=1.0)
    )
    testbed.add_worker(
        FioSpec(name="noisy-writer", io_pages=1, queue_depth=128, read_ratio=0.0)
    )
    results = testbed.run(warmup_us=500_000, measure_us=1_500_000)
    victim_result, writer_result = results["workers"]
    return {
        "scheme": scheme,
        "victim_mbps": victim_result["bandwidth_mbps"],
        "victim_p99_us": victim_result["read_latency"]["p99"],
        "writer_mbps": writer_result["bandwidth_mbps"],
    }


def main() -> None:
    print("Victim: 4KB random reads QD32.  Neighbour: 4KB random writes QD128.")
    print("Device: fragmented (GC active).\n")
    print(f"{'scheme':>10} | {'victim MB/s':>12} | {'victim p99 us':>14} | {'writer MB/s':>12}")
    print("-" * 60)
    baseline = None
    for scheme in ("vanilla",) + tuple(s for s in SCHEMES if s != "vanilla"):
        row = run_scheme(scheme)
        if scheme == "vanilla":
            baseline = row["victim_mbps"]
        gain = row["victim_mbps"] / baseline if baseline else float("nan")
        print(
            f"{row['scheme']:>10} | {row['victim_mbps']:12.1f} | "
            f"{row['victim_p99_us']:14.0f} | {row['writer_mbps']:12.1f}"
            + (f"   ({gain:.1f}x victim vs vanilla)" if scheme != "vanilla" else "")
        )


if __name__ == "__main__":
    main()
