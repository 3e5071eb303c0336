"""SSD geometry: how NAND is organised and how much is exported.

The geometry is scaled down in *capacity* relative to the paper's
960 GB Samsung DCT983 (the default exports ~256 MiB) but not in *rate*:
timing comes from :mod:`repro.ssd.profiles`.  A smaller LBA space keeps
the page-mapped FTL cheap while preserving the garbage-collection
dynamics, because write amplification depends on the overwrite pattern
and the overprovisioning ratio, not on absolute capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_SIZE = 4096


@dataclass(frozen=True)
class SsdGeometry:
    """Physical layout of the simulated device.

    Blocks are partitioned across channels (``block % num_channels``);
    host writes stripe page-by-page across one open block per channel,
    which is how superblock-style FTLs achieve channel parallelism for
    sequential data.
    """

    num_channels: int = 8
    blocks_per_channel: int = 36
    pages_per_block: int = 256
    overprovision: float = 0.12

    def __post_init__(self) -> None:
        if self.num_channels <= 0 or self.blocks_per_channel <= 1 or self.pages_per_block <= 0:
            raise ValueError("invalid geometry dimensions")
        if not 0.0 < self.overprovision < 0.5:
            raise ValueError("overprovision must be in (0, 0.5)")

    @property
    def total_blocks(self) -> int:
        return self.num_channels * self.blocks_per_channel

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def exported_pages(self) -> int:
        """Logical pages visible to the host (physical minus overprovisioning)."""
        return int(self.total_pages * (1.0 - self.overprovision))

    @property
    def exported_bytes(self) -> int:
        return self.exported_pages * PAGE_SIZE

    def channel_of_block(self, block_id: int) -> int:
        return block_id % self.num_channels

    def __str__(self) -> str:
        return (
            f"{self.num_channels}ch x {self.blocks_per_channel}blk x "
            f"{self.pages_per_block}pg (exported {self.exported_bytes // (1 << 20)} MiB, "
            f"OP {self.overprovision:.0%})"
        )
