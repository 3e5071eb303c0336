"""SSD preconditioning (paper Section 5.1).

The paper evaluates two device conditions and re-conditions before
every test:

* **Clean-SSD** -- preconditioned with 128 KiB sequential writes.  The
  FTL's blocks hold sequentially-live data, garbage-collection victims
  are (nearly) empty, and write amplification stays ~1.
* **Fragment-SSD** -- preconditioned with 4 KiB random writes "for
  multiple hours".  Valid pages scatter across blocks, GC victims stay
  mostly valid, and write amplification settles around 4-6.

Conditioning here runs *untimed*: it drives the FTL's mapping and GC
machinery directly (so the resulting block layout and the steady-state
write amplification are real) and then zeroes the device's timing
horizons.  That reproduces "multiple hours" of preconditioning in well
under a second of wall-clock time.  Sequential passes go through
``Ftl.write_run``, one open-block segment at a time; random overwrites
go through ``Ftl.write_page``.

Because many experiments re-condition identical devices, the resulting
FTL state is cached per (geometry, GC watermarks, condition,
parameters) and restored into fresh devices -- the two page maps are
``array('i')``s of 4 bytes a page, so a restore is two memcpys plus a
few per-block list copies.  The watermarks decide when GC runs, so the
layouts genuinely diverge across them.  Only the few most recently used
states are kept: a caller that fragments under many seeds or factors
stores snapshots it never reads back.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Tuple

from repro.sim.rng import derive_seed
from repro.ssd.device import SsdDevice
from repro.ssd.ftl import Ftl

#: Snapshots kept, most recently used last (about 0.55 MB each on the
#: default geometry: 4 bytes per exported and per physical page).
_MAX_SNAPSHOTS = 5
_snapshot_cache: Dict[Tuple, dict] = {}

#: Device states :func:`condition_device` accepts (``none``: leave the
#: device unconditioned).
CONDITIONS = ("clean", "fragmented", "none")


def clear_conditioning_cache() -> None:
    """Drop cached FTL states (tests use this to force re-conditioning)."""
    _snapshot_cache.clear()


def _condition(device: SsdDevice, build: Callable[[Ftl], None], kind: str, *params) -> None:
    """Restore the cached state for this target, or ``build`` and cache it."""
    ftl = device.ftl
    key = (device.geometry, ftl.gc_low_water, ftl.gc_high_water, kind)
    key += params
    snap = _snapshot_cache.pop(key, None)
    if snap is None:
        build(ftl)
        snap = ftl.snapshot()
        if len(_snapshot_cache) >= _MAX_SNAPSHOTS:
            del _snapshot_cache[next(iter(_snapshot_cache))]
    else:
        ftl.restore(snap)
    _snapshot_cache[key] = snap
    # Reset timing and *measurement* state, keep the layout:
    # preconditioning traffic must not pollute the measured write
    # amplification.
    device.reset_time_state()
    ftl.reset_measurement()


def _check_factor(name: str, value: float) -> None:
    """Refuse a conditioning factor that is negative, NaN or infinite."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _fill_then_overwrite(ftl: Ftl, overwrite_factor: float, seed: int, stream: str) -> None:
    """Sequential fill, then ``overwrite_factor`` capacities of random 4 KiB overwrites."""
    exported = len(ftl.page_map)
    ftl.write_run(0, exported)
    write_page = ftl.write_page
    # ``randrange(exported)`` unrolled to the rejection loop it ends in
    # (``Random._randbelow_with_getrandbits``): the same draws in the
    # same order, as in ``RandomPattern.next_lba``.
    getrandbits = random.Random(derive_seed(seed, stream)).getrandbits
    bits = exported.bit_length()
    for _ in range(int(exported * overwrite_factor)):
        lpn = getrandbits(bits)
        while lpn >= exported:
            lpn = getrandbits(bits)
        write_page(lpn)


def precondition_clean(device: SsdDevice) -> None:
    """Two sequential passes over the exported LBA space.

    The first pass fills the device; the second drives the FTL to the
    sequential-overwrite steady state, in which garbage collection
    victims are fully invalid and write amplification stays at ~1 --
    matching a device preconditioned with large sequential writes.
    """

    def build(ftl: Ftl) -> None:
        for _ in range(2):
            ftl.write_run(0, len(ftl.page_map))

    _condition(device, build, "clean")


def precondition_fragmented(
    device: SsdDevice, overwrite_factor: float = 2.0, seed: int = 1
) -> None:
    """Sequential fill followed by uniform random 4 KiB overwrites.

    ``overwrite_factor`` is the number of full device capacities of
    random overwrite traffic; 2.0 is enough to reach the steady-state
    write amplification of greedy GC under uniform random load.
    """
    _check_factor("overwrite_factor", overwrite_factor)

    def build(ftl: Ftl) -> None:
        _fill_then_overwrite(ftl, overwrite_factor, seed, "precondition:fragmented")

    _condition(device, build, "fragmented", overwrite_factor, seed)


def condition_device(device: SsdDevice, condition: str) -> None:
    """Put ``device`` in one of the :data:`CONDITIONS`.

    ``clean`` and ``fragmented`` are each one fixed layout.
    """
    if condition == "clean":
        precondition_clean(device)
    elif condition == "fragmented":
        precondition_fragmented(device)
    elif condition != "none":
        raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
