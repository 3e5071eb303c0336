"""Shared helpers for the experiment drivers.

A driver whose points are a cartesian product of axes (schemes x
device conditions x IO shapes, ...) declares them with one
:func:`build_sweep` call; the tenant mixes the figures share (readers
beside writers, small reads beside large ones) are built by
:func:`mixed_type_specs` and :func:`mixed_size_specs`.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

# Re-exported so drivers import their whole sweep API from one place.
from repro.harness.parallel import (
    Sweep,
    derived_run,  # noqa: F401
    merge_rows,  # noqa: F401
)
from repro.harness.testbed import Testbed, TestbedConfig
from repro.metrics.fairness import f_util
from repro.ssd.commands import DeviceCommand
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


def mixed_type_specs(io_pages: int, n_each: int) -> Tuple[List[FioSpec], List[str]]:
    """``n_each`` readers (``rd{i}``) beside ``n_each`` writers
    (``wr{i}``) of ``io_pages`` pages, and each worker's class."""
    specs = [read_spec(f"rd{i}", io_pages) for i in range(n_each)]
    specs += [write_spec(f"wr{i}", io_pages) for i in range(n_each)]
    return specs, ["read"] * n_each + ["write"] * n_each


def mixed_size_specs(n_small: int, n_large: int) -> Tuple[List[FioSpec], List[str]]:
    """``n_small`` 4 KiB readers (``small{i}``) beside ``n_large``
    128 KiB readers (``large{i}``), and each worker's class."""
    specs = [read_spec(f"small{i}", 1) for i in range(n_small)]
    specs += [read_spec(f"large{i}", 32) for i in range(n_large)]
    return specs, ["4KB"] * n_small + ["128KB"] * n_large


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


def closed_loop(
    device,
    depth: int,
    next_command: Callable[[], DeviceCommand],
    until_us: float,
    on_complete: Optional[Callable[[DeviceCommand], None]] = None,
) -> None:
    """Keep ``depth`` commands from ``next_command()`` in flight on a
    bare device: each completion goes to ``on_complete`` (if any) and,
    while the clock is before ``until_us``, is replaced by the next
    command.  Starts the loop; the caller runs the simulator."""
    sim = device.sim
    submit = device.submit

    def done(cmd: DeviceCommand) -> None:
        if on_complete is not None:
            on_complete(cmd)
        if sim.now < until_us:
            submit(next_command(), done)

    for _ in range(depth):
        submit(next_command(), done)


def build_sweep(
    name: str,
    axes: Mapping[str, Iterable[Any]],
    point_fn: Callable[..., Any],
    root_seed: int = 42,
    **fixed: Any,
) -> Sweep:
    """Declare one sweep point per combination of the named axes.

    Axes expand in nested-loop order (last axis fastest), so row order
    is the declared order.  Each point is labelled ``key=value,...`` in
    axis order and receives the axis values and the ``fixed`` kwargs;
    when ``point_fn`` declares a ``seed`` parameter it also receives the
    per-point seed derived from ``root_seed`` and the label.
    """
    sweep = Sweep(name, root_seed=root_seed)
    seeded = "seed" in inspect.signature(point_fn).parameters
    names = list(axes)
    for values in itertools.product(*(axes[key] for key in names)):
        combo = dict(zip(names, values))
        label = ",".join(f"{key}={value}" for key, value in combo.items())
        seed = {"seed": sweep.seed_for(label)} if seeded else {}
        sweep.point(point_fn, label, **seed, **fixed, **combo)
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
