"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

# Re-exported so drivers import their whole sweep API from one place.
from repro.harness.parallel import (
    Sweep,
    derived_run,  # noqa: F401
    merge_rows,  # noqa: F401
    sweep_axes,
)
from repro.harness.testbed import Testbed, TestbedConfig
from repro.metrics.fairness import f_util
from repro.workloads.fio import FioSpec

#: Default measurement windows (microseconds of simulated time).  The
#: paper runs minutes; one simulated second is enough for steady state
#: at these device speeds, and benches scale these down further.
DEFAULT_WARMUP_US = 400_000.0
DEFAULT_MEASURE_US = 1_000_000.0

#: fio queue depths from Section 5.1: QD32 for 4 KiB, QD4 for 128 KiB.
QD_BY_PAGES = {1: 32, 32: 4}


def default_queue_depth(io_pages: int) -> int:
    return QD_BY_PAGES.get(io_pages, 8)


def read_spec(name: str, io_pages: int, queue_depth: Optional[int] = None) -> FioSpec:
    """Random-read worker (all microbenchmark reads are random)."""
    return FioSpec(
        name=name,
        io_pages=io_pages,
        queue_depth=queue_depth or default_queue_depth(io_pages),
        read_ratio=1.0,
        pattern="random",
    )


def write_spec(name: str, io_pages: int, queue_depth: Optional[int] = None) -> FioSpec:
    """Write worker: 128 KiB writes are sequential, 4 KiB writes random
    (Section 5.1)."""
    return FioSpec(
        name=name,
        io_pages=io_pages,
        queue_depth=queue_depth or default_queue_depth(io_pages),
        read_ratio=0.0,
        pattern="sequential" if io_pages >= 32 else "random",
    )


def run_workers(
    config: TestbedConfig,
    specs: List[FioSpec],
    warmup_us: float = DEFAULT_WARMUP_US,
    measure_us: float = DEFAULT_MEASURE_US,
    region_pages: int = 2048,
) -> Dict[str, object]:
    """Stand up a testbed, run the workers, return the results dict."""
    testbed = Testbed(config)
    for spec in specs:
        testbed.add_worker(spec, region_pages=region_pages)
    results = testbed.run(warmup_us=warmup_us, measure_us=measure_us)
    results["testbed"] = testbed
    return results


def build_sweep(
    name: str,
    axes: Mapping[str, Iterable[Any]],
    point_fn: Callable[..., Any],
    root_seed: int = 42,
    **fixed: Any,
) -> Sweep:
    """Declare one sweep point per combination of the named axes.

    Axes expand in nested-loop order (last axis fastest), matching the
    open-coded loops the drivers used before, so row order is stable.
    ``point_fn`` receives the axis values, the ``fixed`` kwargs, and a
    per-point ``seed`` derived from ``root_seed`` and the point label.
    """
    sweep = Sweep(name, root_seed=root_seed)
    for combo in sweep_axes(axes):
        label = ",".join(f"{key}={combo[key]}" for key in combo)
        sweep.point(
            point_fn, label=label, seed=sweep.seed_for(label), **fixed, **combo
        )
    return sweep


_standalone_cache: Dict[Tuple, float] = {}


def standalone_bandwidth(
    condition: str,
    spec: FioSpec,
    measure_us: float = DEFAULT_MEASURE_US,
    device_profile: str = "dct983",
) -> float:
    """Bandwidth of one worker running exclusively on the SSD.

    This is the denominator of the paper's f-Util metric; computed on
    the vanilla configuration (no isolation machinery in the way) and
    cached per (condition, shape).
    """
    key = (
        condition,
        device_profile,
        spec.io_pages,
        spec.queue_depth,
        spec.read_ratio,
        spec.pattern,
        measure_us,
    )
    cached = _standalone_cache.get(key)
    if cached is not None:
        return cached
    solo = FioSpec(
        name="standalone",
        io_pages=spec.io_pages,
        queue_depth=spec.queue_depth,
        read_ratio=spec.read_ratio,
        pattern=spec.pattern,
    )
    results = run_workers(
        TestbedConfig(scheme="vanilla", condition=condition, device_profile=device_profile),
        [solo],
        warmup_us=200_000.0,
        measure_us=measure_us,
        region_pages=16384,
    )
    bandwidth = results["workers"][0]["bandwidth_mbps"]
    _standalone_cache[key] = bandwidth
    return bandwidth


def f_utils_for(
    results: Dict[str, object],
    specs: List[FioSpec],
    condition: str,
    device_profile: str = "dct983",
    standalone_measure_us: float = DEFAULT_MEASURE_US,
) -> List[float]:
    """Per-worker f-Util values for one run.

    ``standalone_measure_us`` scales the denominator's measurement
    window; quick/golden runs shrink it along with their own windows.
    """
    total = len(specs)
    values = []
    for worker, spec in zip(results["workers"], specs):
        standalone = standalone_bandwidth(
            condition,
            spec,
            measure_us=standalone_measure_us,
            device_profile=device_profile,
        )
        values.append(f_util(worker["bandwidth_mbps"], standalone, total))
    return values
