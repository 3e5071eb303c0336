"""Figure 14 (Appendix A): 4 KiB IOPS vs read ratio, clean vs fragmented.

Closed-loop 4 KiB random IO directly against the device, sweeping the
read fraction.  Paper shape: the "bathtub" -- on a fragmented device,
adding just 5% writes to a read-only stream drops total IOPS ~40%,
and the write-heavy end reaches only ~17% of the clean device's
throughput.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.harness.experiments.common import build_sweep, closed_loop, derived_run, merge_rows
from repro.harness.report import format_table
from repro.sim.engine import Simulator
from repro.ssd.commands import OP_READ, OP_WRITE, DeviceCommand
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice

READ_RATIOS = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 0.95, 1.0)


def _closed_loop(
    condition: str,
    read_ratio: float,
    queue_depth: int,
    duration_us: float,
    seed: int = 11,
):
    sim = Simulator()
    device = SsdDevice(sim)
    condition_device(device, condition)
    rng = random.Random(seed)
    random_ = rng.random
    # ``rng.randrange(slots)`` unrolled to the rejection loop it ends
    # in (``Random._randbelow_with_getrandbits``): the same
    # ``getrandbits(k)`` draws in the same order, as in
    # ``RandomPattern.next_lba``.
    getrandbits = rng.getrandbits
    slots = device.exported_pages - 1
    bits = slots.bit_length()
    # Every command is one 4 KiB page.
    read_bytes = write_bytes = 0

    def next_command():
        op = OP_READ if random_() < read_ratio else OP_WRITE
        lpn = getrandbits(bits)
        while lpn >= slots:
            lpn = getrandbits(bits)
        return DeviceCommand(op, lpn, 1)

    def on_complete(cmd):
        nonlocal read_bytes, write_bytes
        if cmd.op is OP_READ:
            read_bytes += 4096
        else:
            write_bytes += 4096

    closed_loop(device, queue_depth, next_command, duration_us, on_complete)
    sim.run(until_us=duration_us)
    seconds = duration_us / 1e6
    mib = 1024 * 1024
    return {
        "read_mbps": read_bytes / seconds / mib,
        "write_mbps": write_bytes / seconds / mib,
        "kiops": (read_bytes + write_bytes) // 4096 / seconds / 1000.0,
    }


def _point(
    condition: str, read_ratio: float, queue_depth: int, duration_us: float, seed: int
) -> dict:
    point = _closed_loop(condition, read_ratio, queue_depth, duration_us, seed=seed)
    return {
        "condition": condition,
        "read_ratio": read_ratio,
        "read_mbps": point["read_mbps"],
        "write_mbps": point["write_mbps"],
        "kiops": point["kiops"],
    }


def sweep(
    duration_us: float = 500_000.0,
    queue_depth: int = 32,
    read_ratios=READ_RATIOS,
    root_seed: int = 42,
):
    """Declare one point per (condition, read ratio) cell."""
    return build_sweep(
        "fig14",
        {"condition": ("clean", "fragmented"), "read_ratio": read_ratios},
        _point,
        root_seed=root_seed,
        queue_depth=queue_depth,
        duration_us=duration_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "14", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (
            row["condition"],
            row["read_ratio"],
            row["read_mbps"],
            row["write_mbps"],
            row["kiops"],
        )
        for row in results["rows"]
    ]
    return format_table(
        ["condition", "read ratio", "read MB/s", "write MB/s", "KIOPS"],
        table_rows,
        title="Figure 14: 4KB performance vs read ratio (clean vs fragmented)",
    )
