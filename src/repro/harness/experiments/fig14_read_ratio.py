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

from repro.harness.experiments.common import build_sweep, derived_run, merge_rows
from repro.harness.report import format_table
from repro.sim.engine import Simulator
from repro.ssd.commands import DeviceCommand, IoOp
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
    exported = device.exported_pages
    state = {"read_bytes": 0, "write_bytes": 0, "ops": 0}

    def issue():
        op = IoOp.READ if rng.random() < read_ratio else IoOp.WRITE
        device.submit(DeviceCommand(op, rng.randrange(exported - 1), 1), on_complete)

    def on_complete(cmd):
        if cmd.op.is_read:
            state["read_bytes"] += cmd.size_bytes
        else:
            state["write_bytes"] += cmd.size_bytes
        state["ops"] += 1
        if sim.now < duration_us:
            issue()

    for _ in range(queue_depth):
        issue()
    sim.run(until_us=duration_us)
    seconds = duration_us / 1e6
    mib = 1024 * 1024
    return {
        "read_mbps": state["read_bytes"] / seconds / mib,
        "write_mbps": state["write_bytes"] / seconds / mib,
        "kiops": state["ops"] / seconds / 1000.0,
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
