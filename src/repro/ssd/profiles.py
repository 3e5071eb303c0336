"""Device timing profiles.

Each profile calibrates the analytic timing model against a real
device's headline numbers.  The anchors for the default (Samsung
DCT983-like) profile come straight from the paper:

* 4 KiB random read maxes out around 1.6-1.7 GB/s (controller-limited:
  ``num_channels / t_ctrl_cmd_us`` commands/s),
* 128 KiB read reaches ~3.2 GB/s (channel-limited:
  ``num_channels / t_read_xfer_us`` pages/s),
* unloaded 4 KiB read latency is ~75-80 us (dominated by the NAND
  sense time, which is parallel across dies and does not occupy the
  channel),
* clean sequential write sustains ~1.3 GB/s (``num_channels /
  t_prog_us`` pages/s),
* a fragmented device sustains only ~180 MB/s of 4 KiB random writes
  (garbage collection charges relocation reads/programs and erases
  to the channels), giving a worst-case write cost near the paper's 9.

The Intel P3600 profile follows Section 5.8: ~33.5% lower 128 KiB read
bandwidth, ~35% higher fragmented 4 KiB write bandwidth, and higher
large-read tail latency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceProfile:
    """Timing parameters of the analytic SSD model (all times in us)."""

    name: str
    #: Per-command occupancy of the (single) controller resource.
    t_ctrl_cmd_us: float
    #: Channel occupancy per 4 KiB page transferred for a read.
    t_read_xfer_us: float
    #: NAND array sense time; added to read completion, parallel across
    #: dies, does not occupy the channel.
    t_sense_us: float
    #: Channel occupancy per 4 KiB page programmed.
    t_prog_us: float
    #: Channel occupancy of a block erase.
    t_erase_us: float
    #: Host-visible latency of a write absorbed by the DRAM buffer.
    t_buf_write_us: float
    #: Host-visible latency of a read served from the DRAM buffer.
    t_buf_read_us: float
    #: DRAM write buffer capacity in pages.
    buffer_pages: int
    #: Upper bound of garbage-collection debt charged to a single
    #: program booking; smooths GC work across writes instead of
    #: stalling one victim write for a whole block relocation.
    gc_installment_us: float
    #: Fraction of each GC installment that also occupies the
    #: read-visible (foreground) channel timeline.  Program/erase
    #: suspension lets the device prioritise reads over GC, but not
    #: perfectly; 0.0 would make GC invisible to reads, 1.0 would
    #: block reads behind all relocation traffic.
    gc_read_visible_fraction: float
    #: Refill garbage collection when a channel's free-block pool drops
    #: below this...
    gc_low_water_blocks: int
    #: ...and stop once it is back at this level.
    gc_high_water_blocks: int
    def __post_init__(self) -> None:
        if self.gc_high_water_blocks < self.gc_low_water_blocks:
            raise ValueError("GC high water must be >= low water")
        if not 0.0 <= self.gc_read_visible_fraction <= 1.0:
            raise ValueError("gc_read_visible_fraction must be in [0, 1]")
        for field_name in (
            "t_ctrl_cmd_us",
            "t_read_xfer_us",
            "t_sense_us",
            "t_prog_us",
            "t_erase_us",
            "t_buf_write_us",
            "t_buf_read_us",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")


#: Samsung DCT983-like TLC device (the paper's primary SSD).
DCT983_PROFILE = DeviceProfile(
    name="dct983",
    t_ctrl_cmd_us=2.4,
    t_read_xfer_us=9.5,
    t_sense_us=65.0,
    t_prog_us=24.0,
    t_erase_us=1000.0,
    t_buf_write_us=25.0,
    t_buf_read_us=8.0,
    buffer_pages=256,
    gc_installment_us=300.0,
    gc_read_visible_fraction=0.5,
    gc_low_water_blocks=1,
    gc_high_water_blocks=2,
)

#: Intel DC P3600-like MLC device (Section 5.8 generalisation study).
P3600_PROFILE = DeviceProfile(
    name="p3600",
    t_ctrl_cmd_us=2.4,
    t_read_xfer_us=14.5,
    t_sense_us=85.0,
    t_prog_us=22.0,
    t_erase_us=900.0,
    t_buf_write_us=25.0,
    t_buf_read_us=8.0,
    buffer_pages=256,
    gc_installment_us=250.0,
    gc_read_visible_fraction=0.5,
    gc_low_water_blocks=1,
    gc_high_water_blocks=2,
)

#: QLC NAND device (paper Section 6: cheaper/denser than TLC with a
#: higher degree of read/write asymmetry -- slower, more
#: interference-prone programs and longer erases).  Used by the
#: extension study showing Gimbal's techniques carry over.
QLC_PROFILE = DeviceProfile(
    name="qlc",
    t_ctrl_cmd_us=2.4,
    t_read_xfer_us=11.0,
    t_sense_us=90.0,
    t_prog_us=60.0,
    t_erase_us=2500.0,
    t_buf_write_us=25.0,
    t_buf_read_us=8.0,
    buffer_pages=256,
    gc_installment_us=400.0,
    gc_read_visible_fraction=0.6,
    gc_low_water_blocks=1,
    gc_high_water_blocks=2,
)

#: Infinitely fast device used for the Table 1 NULL-device IOPS test:
#: every command completes immediately, so the SmartNIC core is the
#: bottleneck.
NULL_PROFILE = DeviceProfile(
    name="null",
    t_ctrl_cmd_us=0.0,
    t_read_xfer_us=0.0,
    t_sense_us=0.0,
    t_prog_us=0.0,
    t_erase_us=0.0,
    t_buf_write_us=0.0,
    t_buf_read_us=0.0,
    buffer_pages=1,
    gc_installment_us=0.0,
    gc_read_visible_fraction=0.0,
    gc_low_water_blocks=0,
    gc_high_water_blocks=0,
)

_PROFILES = {p.name: p for p in (DCT983_PROFILE, P3600_PROFILE, QLC_PROFILE, NULL_PROFILE)}


def profile_by_name(name: str) -> DeviceProfile:
    """Look up a built-in profile by name (``dct983``, ``p3600``, ``qlc``, ``null``)."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown device profile {name!r}; known: {sorted(_PROFILES)}") from None
