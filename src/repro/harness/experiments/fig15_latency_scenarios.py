"""Figure 15 (Appendix A): random-read latency vs IO size, four scenarios.

Average read latency for one probing read stream under: a vanilla
(clean, otherwise idle) device, a fragmented device, a 70/30
read/write background mix, and QD8 self-load.  Paper shape: all three
perturbations inflate latency substantially (52-84% on average), with
larger IOs degrading the most.
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

IO_SIZES_KB = (4, 8, 16, 32, 64, 128, 256)
SCENARIOS = ("vanilla", "fragmented", "70/30-rw", "qd8")


def _scenario_latency(scenario: str, io_pages: int, duration_us: float) -> float:
    sim = Simulator()
    device = SsdDevice(sim)
    condition_device(device, "fragmented" if scenario == "fragmented" else "clean")
    rng = random.Random(13)
    exported = device.exported_pages
    state = {"latency": 0.0, "count": 0}

    def probe():
        return DeviceCommand(OP_READ, rng.randrange(exported - io_pages), io_pages)

    def probe_done(cmd):
        state["latency"] += cmd.latency_us
        state["count"] += 1

    if scenario == "70/30-rw":
        # Background 70/30 4 KiB mix at QD16.  It starts before the probes,
        # so its first 16 commands take the first random draws.
        def background():
            op = OP_READ if rng.random() < 0.7 else OP_WRITE
            return DeviceCommand(op, rng.randrange(exported - 1), 1)

        closed_loop(device, 16, background, duration_us)
    closed_loop(device, 8 if scenario == "qd8" else 1, probe, duration_us, probe_done)
    sim.run(until_us=duration_us)
    return state["latency"] / max(state["count"], 1)


def _point(scenario: str, size_kb: int, duration_us: float) -> dict:
    latency = _scenario_latency(scenario, size_kb // 4, duration_us)
    return {"scenario": scenario, "size_kb": size_kb, "avg_latency_us": latency}


def sweep(duration_us: float = 300_000.0, io_sizes_kb=IO_SIZES_KB):
    """One point per (scenario, IO size) in the original loop order."""
    return build_sweep(
        "fig15", {"scenario": SCENARIOS, "size_kb": io_sizes_kb}, _point, duration_us=duration_us
    )


def finalize(results) -> Dict[str, object]:
    return {"figure": "15", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["scenario"], row["size_kb"], row["avg_latency_us"]) for row in results["rows"]
    ]
    return format_table(
        ["scenario", "size KB", "avg latency us"],
        table_rows,
        title="Figure 15: random read latency under four scenarios",
    )
