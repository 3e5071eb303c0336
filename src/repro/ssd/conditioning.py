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
``Ftl.write_run``, one open-block segment at a time; the page at each
block-open takes ``Ftl._open_host_block``, the step ``write_pages``
shares, and every GC victim of the clean build's second pass holds
nothing live, so it is erased without a scan of its reverse map.  The
random overwrites go through one ``Ftl.write_pages`` call over the
draws, page by page: each draw is its own LPN with its own old copy.
A fresh process builds the clean layout in about 4.2 ms (5.5 ms when
every block-open was a one-page ``write_pages`` call and every empty
victim was scanned; fastest of ten interleaved fresh processes on a
2-core x86 box).

Because many experiments re-condition identical devices, the resulting
FTL state is cached per (geometry, GC watermarks, condition) and
restored into fresh devices -- the two page maps are ``array('i')``s
of 4 bytes a page, so a restore is two memcpys plus a few per-block
list copies.  The watermarks decide when GC runs, so the layouts
genuinely diverge across them.  Every shipped profile with an FTL
shares one pair of watermarks and every driver the default geometry,
so a run stores at most two states.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from repro.sim.rng import derive_seed
from repro.ssd.device import SsdDevice
from repro.ssd.ftl import Ftl

_snapshot_cache: Dict[Tuple, dict] = {}

#: Device states :func:`condition_device` accepts (``none``: leave the
#: device unconditioned).
CONDITIONS = ("clean", "fragmented", "none")


def clear_conditioning_cache() -> None:
    """Drop cached FTL states (tests use this to force re-conditioning)."""
    _snapshot_cache.clear()


def _clean(ftl: Ftl) -> None:
    """Two sequential passes over the exported LBA space.

    The first pass fills the device; the second drives the FTL to the
    sequential-overwrite steady state, in which garbage collection
    victims are fully invalid and write amplification stays at ~1 --
    matching a device preconditioned with large sequential writes.
    """
    for _ in range(2):
        ftl.write_run(0, len(ftl.page_map))


def _fragmented(ftl: Ftl) -> None:
    """Sequential fill, then two capacities of uniform random 4 KiB overwrites.

    Two capacities are enough to reach the steady-state write
    amplification of greedy GC under uniform random load.
    """
    exported = len(ftl.page_map)
    ftl.write_run(0, exported)
    # ``randrange(exported)`` unrolled to the rejection loop it ends in
    # (``Random._randbelow_with_getrandbits``): the same draws in the
    # same order, as in ``RandomPattern.next_lba``.
    getrandbits = random.Random(derive_seed(1, "precondition:fragmented")).getrandbits
    bits = exported.bit_length()

    def draws():
        for _ in range(2 * exported):
            lpn = getrandbits(bits)
            while lpn >= exported:
                lpn = getrandbits(bits)
            yield lpn

    ftl.write_pages(draws())


_BUILDERS: Dict[str, Callable[[Ftl], None]] = {"clean": _clean, "fragmented": _fragmented}


def condition_device(device: SsdDevice, condition: str) -> None:
    """Put ``device`` in one of the :data:`CONDITIONS`.

    ``clean`` and ``fragmented`` are each one fixed layout, restored
    from the cache when this geometry and these watermarks built it
    before.
    """
    if condition == "none":
        return
    build = _BUILDERS.get(condition)
    if build is None:
        raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    ftl = device.ftl
    key = (device.geometry, ftl.gc_low_water, ftl.gc_high_water, condition)
    snap = _snapshot_cache.get(key)
    if snap is None:
        build(ftl)
        _snapshot_cache[key] = ftl.snapshot()
    else:
        ftl.restore(snap)
    # Reset timing and *measurement* state, keep the layout:
    # preconditioning traffic must not pollute the measured write
    # amplification.
    device.reset_time_state()
    ftl.reset_measurement()
