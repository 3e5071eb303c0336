"""Blobstore filesystem with replication and a read load balancer.

Files are sequences of micro blobs.  As in the paper (Section 4.3)
every file keeps a primary and a shadow copy whose micro blobs live on
*different* backends: a write completes when both replicas are
written; a read is steered to the replica whose SSD currently
advertises the most credit (the least load).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Tuple

from repro.fabric.request import FabricRequest
from repro.kv.allocator import BlobAddress, LocalBlobAllocator
from repro.kv.backend import RemoteBackend

_file_ids = itertools.count(1)

DoneCallback = Callable[[], None]


class BlobFile:
    """One file: parallel lists of primary/shadow micro blobs."""

    def __init__(self, name: str, micro_pages: int):
        self.name = name
        self.file_id = next(_file_ids)
        self.micro_pages = micro_pages
        self.primary: List[BlobAddress] = []
        self.shadow: List[BlobAddress] = []

    @property
    def size_pages(self) -> int:
        return len(self.primary) * self.micro_pages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlobFile({self.name}, {self.size_pages} pages)"


class Blobstore:
    """File API over micro blobs spread across remote backends."""

    def __init__(
        self,
        allocator: LocalBlobAllocator,
        backends: Dict[str, RemoteBackend],
        load_balance_reads: bool = True,
    ):
        if len(backends) < 2:
            raise ValueError("replication needs at least two backends")
        self.allocator = allocator
        self.backends = backends
        self.load_balance_reads = load_balance_reads
        self.files: Dict[str, BlobFile] = {}
        self.reads_to_shadow = 0
        self.reads_to_primary = 0

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def create(self, name: str) -> BlobFile:
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        file = BlobFile(name, self.allocator.micro_pages)
        self.files[name] = file
        return file

    def delete(self, file: BlobFile) -> None:
        """Free the file's blobs.

        The address lists are intentionally left intact: an LSM read
        racing a compaction's table deletion may still have a probe in
        flight against the old file, and (as on a real device reading
        TRIMmed blocks) that read must resolve rather than crash.
        """
        for address in file.primary:
            self.backends[address.backend].trim(address.lba, address.npages)
            self.allocator.free_micro(address)
        for address in file.shadow:
            self.backends[address.backend].trim(address.lba, address.npages)
            self.allocator.free_micro(address)
        self.files.pop(file.name, None)

    def extend(self, file: BlobFile, npages: int) -> None:
        """Grow ``file`` until its capacity is at least ``npages``."""
        while file.size_pages < npages:
            primary = self.allocator.allocate_micro()
            file.primary.append(primary)
            file.shadow.append(self.allocator.allocate_micro(exclude_backends={primary.backend}))

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    def _segments(
        self, file: BlobFile, page_offset: int, npages: int
    ) -> List[Tuple[int, int, int]]:
        """Split a file range into (blob_index, offset_in_blob, npages)."""
        if page_offset < 0 or npages <= 0:
            raise ValueError("invalid file range")
        if page_offset + npages > file.size_pages:
            raise ValueError(
                f"range [{page_offset}, {page_offset + npages}) beyond "
                f"file size {file.size_pages}"
            )
        segments = []
        remaining = npages
        cursor = page_offset
        while remaining > 0:
            blob_index = cursor // file.micro_pages
            within = cursor % file.micro_pages
            take = min(remaining, file.micro_pages - within)
            segments.append((blob_index, within, take))
            cursor += take
            remaining -= take
        return segments

    def write(
        self, file: BlobFile, page_offset: int, npages: int, on_done: DoneCallback,
        priority: int = 0,
    ) -> None:
        """Write a range; completes when every replica write finishes."""
        segments = self._segments(file, page_offset, npages)
        pending = {"count": 2 * len(segments)}

        def one_done(request: FabricRequest) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                on_done()

        for blob_index, within, take in segments:
            primary = file.primary[blob_index]
            self.backends[primary.backend].write(
                primary.lba + within, take, one_done, priority
            )
            shadow = file.shadow[blob_index]
            self.backends[shadow.backend].write(shadow.lba + within, take, one_done, priority)

    def read(
        self, file: BlobFile, page_offset: int, npages: int, on_done: DoneCallback,
        priority: int = 0,
    ) -> None:
        """Read a range, steering each segment to the best replica."""
        segments = self._segments(file, page_offset, npages)
        pending = {"count": len(segments)}

        def one_done(request: FabricRequest) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                on_done()

        for blob_index, within, take in segments:
            address = self._pick_replica(file, blob_index)
            self.backends[address.backend].read(address.lba + within, take, one_done, priority)

    def _pick_replica(self, file: BlobFile, blob_index: int) -> BlobAddress:
        primary = file.primary[blob_index]
        if not self.load_balance_reads:
            self.reads_to_primary += 1
            return primary
        shadow = file.shadow[blob_index]
        primary_load = self.backends[primary.backend].load_score
        shadow_load = self.backends[shadow.backend].load_score
        if shadow_load > primary_load:
            self.reads_to_primary += 1
            return primary
        if shadow_load < primary_load:
            self.reads_to_shadow += 1
            return shadow
        # Tied load scores: an unloaded (or uniformly loaded) rack
        # would otherwise send 100% of reads to primaries, understating
        # the load balancer.  Steer by cumulative reads so ties
        # alternate between the copies.
        if self.reads_to_shadow < self.reads_to_primary:
            self.reads_to_shadow += 1
            return shadow
        self.reads_to_primary += 1
        return primary
