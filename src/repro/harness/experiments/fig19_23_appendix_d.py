"""Figures 19-23 (Appendix D): characterising JBOF multi-tenant
interference on the vanilla target.

* Figure 19 -- IO *intensity*: two identical streams, one with twice
  the queue depth, sweeping IO size; the intense stream takes ~2x.
* Figure 20 -- IO *size*: a 4 KiB stream against a neighbour of
  growing IO size; large IOs dominate bandwidth.
* Figure 21 -- IO *pattern*: a read stream standalone vs mixed with a
  same-shape write stream; reads keep only a fraction when mixed.
* Figures 22/23 -- latency: a 4 KiB stream's average/p99.9 latency as
  a background stream of the opposite type grows its IO size.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import Sweep, derived_run, run_workers
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig
from repro.workloads.fio import FioSpec

SIZES_KB = (4, 16, 64, 128, 256)


def _pair(spec_a: FioSpec, spec_b: FioSpec, measure_us: float, condition: str = "clean"):
    results = run_workers(
        TestbedConfig(scheme="vanilla", condition=condition),
        [spec_a, spec_b],
        warmup_us=150_000.0,
        measure_us=measure_us,
        region_pages=8192,
    )
    return results


def _point19(size_kb: int, op: str, measure_us: float) -> dict:
    io_pages = size_kb // 4
    read_ratio, pattern = (1.0, "random") if op == "rnd-rd" else (0.0, "sequential")
    base_depth = 16 if io_pages == 1 else 4
    results = _pair(
        FioSpec("intense", io_pages=io_pages, queue_depth=2 * base_depth,
                read_ratio=read_ratio, pattern=pattern),
        FioSpec("mild", io_pages=io_pages, queue_depth=base_depth,
                read_ratio=read_ratio, pattern=pattern),
        measure_us,
    )
    intense, mild = (w["bandwidth_mbps"] for w in results["workers"])
    return {"fig": "19", "op": op, "size_kb": size_kb,
            "intense_mbps": intense, "mild_mbps": mild}


def _point20(size_kb: int, measure_us: float) -> dict:
    results = _pair(
        FioSpec("s1-4k", io_pages=1, queue_depth=32, read_ratio=1.0),
        FioSpec("s2", io_pages=size_kb // 4, queue_depth=32, read_ratio=1.0),
        measure_us,
    )
    small, big = (w["bandwidth_mbps"] for w in results["workers"])
    return {"fig": "20", "neighbour_kb": size_kb, "stream1_mbps": small, "stream2_mbps": big}


def _point21(size_kb: int, measure_us: float) -> dict:
    io_pages = size_kb // 4
    solo = run_workers(
        TestbedConfig(scheme="vanilla", condition="clean"),
        [FioSpec("rd", io_pages=io_pages, queue_depth=16, read_ratio=1.0)],
        warmup_us=150_000.0,
        measure_us=measure_us,
        region_pages=8192,
    )["workers"][0]["bandwidth_mbps"]
    mixed = _pair(
        FioSpec("rd", io_pages=io_pages, queue_depth=16, read_ratio=1.0),
        FioSpec("wr", io_pages=io_pages, queue_depth=16, read_ratio=0.0,
                pattern="sequential"),
        measure_us,
    )["workers"][0]["bandwidth_mbps"]
    return {"fig": "21", "size_kb": size_kb, "standalone_mbps": solo, "mixed_mbps": mixed}


def _point22_23(fig: str, bg_size_kb: int, measure_us: float) -> dict:
    probe_read = fig == "22"
    probe = FioSpec(
        "probe",
        io_pages=1,
        queue_depth=8,
        read_ratio=1.0 if probe_read else 0.0,
        pattern="random" if probe_read else "sequential",
    )
    if bg_size_kb == 0:
        results = run_workers(
            TestbedConfig(scheme="vanilla", condition="clean"),
            [probe],
            warmup_us=150_000.0,
            measure_us=measure_us,
            region_pages=8192,
        )
    else:
        background = FioSpec(
            "bg",
            io_pages=bg_size_kb // 4,
            queue_depth=16,
            read_ratio=0.0 if probe_read else 1.0,
            pattern="sequential" if probe_read else "random",
        )
        results = _pair(probe, background, measure_us)
    worker = results["workers"][0]
    latency = worker["read_latency"] if probe_read else worker["write_latency"]
    return {
        "fig": fig,
        "bg_size_kb": bg_size_kb,
        "avg_us": latency["mean"],
        "p999_us": latency["p999"],
    }


def sweep(measure_us: float = 400_000.0):
    """One point per appendix cell, grouped 19 / 20 / 21 / 22-23."""
    sw = Sweep("fig19-23")
    for size_kb in SIZES_KB:
        for op in ("rnd-rd", "seq-wr"):
            sw.point(
                _point19,
                label=f"fig19:size={size_kb},op={op}",
                size_kb=size_kb,
                op=op,
                measure_us=measure_us,
            )
    for size_kb in SIZES_KB:
        sw.point(
            _point20, label=f"fig20:size={size_kb}", size_kb=size_kb, measure_us=measure_us
        )
    for size_kb in SIZES_KB:
        sw.point(
            _point21, label=f"fig21:size={size_kb}", size_kb=size_kb, measure_us=measure_us
        )
    for fig in ("22", "23"):
        for size_kb in (0,) + SIZES_KB:
            sw.point(
                _point22_23,
                label=f"fig{fig}:bg={size_kb}",
                fig=fig,
                bg_size_kb=size_kb,
                measure_us=measure_us,
            )
    return sw


def finalize(results) -> Dict[str, object]:
    """Slice the ordered point results back into the four sub-figures."""
    n19 = len(SIZES_KB) * 2
    n20 = n19 + len(SIZES_KB)
    n21 = n20 + len(SIZES_KB)
    return {
        "figure": "19-23",
        "fig19": list(results[:n19]),
        "fig20": list(results[n19:n20]),
        "fig21": list(results[n20:n21]),
        "fig22_23": list(results[n21:]),
    }


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    parts = [
        format_table(
            ["op", "size KB", "2x-QD MB/s", "1x-QD MB/s"],
            [(r["op"], r["size_kb"], r["intense_mbps"], r["mild_mbps"]) for r in results["fig19"]],
            title="Figure 19: intensity asymmetry",
        ),
        format_table(
            ["neighbour KB", "4KB stream MB/s", "neighbour MB/s"],
            [(r["neighbour_kb"], r["stream1_mbps"], r["stream2_mbps"]) for r in results["fig20"]],
            title="Figure 20: size asymmetry",
        ),
        format_table(
            ["size KB", "standalone MB/s", "mixed MB/s"],
            [(r["size_kb"], r["standalone_mbps"], r["mixed_mbps"]) for r in results["fig21"]],
            title="Figure 21: read bandwidth, standalone vs mixed with writes",
        ),
        format_table(
            ["fig", "bg size KB", "avg us", "p99.9 us"],
            [(r["fig"], r["bg_size_kb"], r["avg_us"], r["p999_us"]) for r in results["fig22_23"]],
            title="Figures 22/23: probe latency vs background IO size",
        ),
    ]
    return "\n\n".join(parts)
