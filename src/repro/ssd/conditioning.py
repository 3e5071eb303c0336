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
FTL state is cached per (geometry, GC watermarks, fidelity knobs,
condition, parameters) and restored into fresh devices -- the two page
maps are ``array('i')``s of 4 bytes a page, so a restore is two memcpys
plus a few per-block list copies.
The watermarks decide when GC runs, and the fidelity knobs
(mapping-cache capacity, wear configuration) change what it does, so
conditioning genuinely diverges across both: layout, cache residency,
retirement and wear-level migrations all differ.  Only the
few most recently used states are kept: a sweep that ages every point
under its own seed stores snapshots it never reads back.
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


def clear_conditioning_cache() -> None:
    """Drop cached FTL states (tests use this to force re-conditioning)."""
    _snapshot_cache.clear()


def _condition(device: SsdDevice, build: Callable[[Ftl], None], kind: str, *params) -> None:
    """Restore the cached state for this target, or ``build`` and cache it."""
    ftl = device.ftl
    key = (device.geometry, ftl.gc_low_water, ftl.gc_high_water, ftl.fidelity_key(), kind)
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
    # amplification (or mapping-cache hit rates).
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


def age_device(
    device: SsdDevice,
    age: float,
    wear_skew: float = 0.25,
    overwrite_factor: float = 2.0,
    seed: int = 1,
) -> None:
    """Fast-forward a device to a target wear/fragmentation state.

    ``age`` is the fraction of the device's useful life consumed, in
    [0, 1): 0.0 is a fresh (but fragmented) device, 0.8 a device near
    end of life.  Aging composes two effects:

    * **fragmentation** -- the same random-overwrite conditioning as
      :func:`precondition_fragmented` (an old device's blocks hold
      scattered valid pages);
    * **wear** -- per-block erase counts fast-forwarded to ``age *
      0.9 * endurance`` on average (the 0.9 leaves headroom so the
      aged device boots alive and retires blocks *during* the
      subsequent run), with a lognormal-ish spread controlled by
      ``wear_skew`` (real fleets never wear uniformly -- that skew is
      what makes static wear levelling and retirement observable).

    Without a configured endurance limit the wear target falls back to
    ``age * 3000`` cycles (a typical TLC rating), so wear statistics
    stay meaningful on profiles that never retire blocks.
    """
    if not 0.0 <= age < 1.0:
        raise ValueError("age must be in [0, 1)")
    _check_factor("wear_skew", wear_skew)
    _check_factor("overwrite_factor", overwrite_factor)

    def build(ftl: Ftl) -> None:
        _fill_then_overwrite(ftl, overwrite_factor, seed, "precondition:aged")
        endurance = 3000
        if ftl.wear is not None and ftl.wear.endurance_cycles is not None:
            endurance = ftl.wear.endurance_cycles
        mean_target = age * 0.9 * endurance
        wear_rng = random.Random(derive_seed(seed, "precondition:wear"))
        deltas = []
        for _ in range(device.geometry.total_blocks):
            factor = max(0.0, wear_rng.gauss(1.0, wear_skew))
            deltas.append(int(mean_target * factor))
        ftl.advance_wear(deltas)

    _condition(device, build, "aged", age, wear_skew, overwrite_factor, seed)
