"""The FTL's structural invariants, checked by the SSD tests."""

from __future__ import annotations

from repro.ssd.ftl import _UNMAPPED, Ftl


def check_invariants(ftl: Ftl) -> None:
    """Verify map/reverse-map/valid-count consistency and that every
    block sits in exactly one pool.  O(total pages)."""
    for lpn, ppn in enumerate(ftl.page_map):
        if ppn != _UNMAPPED and ftl._rmap[ppn] != lpn:
            raise AssertionError(f"map mismatch: lpn={lpn} ppn={ppn} rmap={ftl._rmap[ppn]}")
    counted = [0] * ftl.geometry.total_blocks
    for ppn, lpn in enumerate(ftl._rmap):
        if lpn != _UNMAPPED:
            if ftl.page_map[lpn] != ppn:
                raise AssertionError(f"rmap mismatch: ppn={ppn} lpn={lpn}")
            counted[ppn // ftl._pages_per_block] += 1
    if counted != ftl._valid_count:
        raise AssertionError("valid counts inconsistent with reverse map")
    # Pool accounting: every block is in exactly one of the
    # free/closed/open pools.
    seen = [0] * ftl.geometry.total_blocks
    for pool in ftl._free:
        for block_id in pool:
            seen[block_id] += 1
    for pool in ftl._closed:
        for block_id in pool:
            seen[block_id] += 1
    for slots in ftl._open:
        for slot in slots:
            if slot is not None:
                seen[slot[0]] += 1
    for block_id, count in enumerate(seen):
        if count != 1:
            raise AssertionError(
                f"block {block_id} appears {count} times across free/closed/open pools"
            )
    if any(count < 0 for count in ftl._erase_counts):
        raise AssertionError("negative erase count")
