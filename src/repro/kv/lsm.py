"""Log-structured merge tree over the blobstore (Appendix E).

The engine follows RocksDB's structure at a scale matched to the
simulated devices:

* **Memtable** -- recent updates, served from memory; a group-commit
  WAL makes each ``put`` durable (and is what back-pressures writers
  when the storage is congested).
* **SSTables** -- sorted runs persisted as blob files.  L0 tables may
  overlap; L1+ levels hold non-overlapping runs and grow by
  ``level_ratio`` per level.
* **Flush / compaction** -- when the memtable fills it flushes to L0;
  when L0 reaches the trigger (or a level overflows) a background
  compaction merges runs downward, issuing large sequential reads and
  writes -- the traffic that makes update-heavy YCSB workloads
  write-intensive.
* **Reads** -- memtable, then newest-to-oldest through the levels;
  per-table bloom filters skip almost all non-containing tables, so a
  point lookup typically costs one 4 KiB read.

Values carry sizes only (no payload bytes move through the simulator);
correctness is still testable because key membership is exact.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.kv.blobstore import BlobFile, Blobstore
from repro.kv.bloom import BloomFilter
from repro.sim.engine import Simulator

_table_ids = itertools.count(1)

PutCallback = Callable[[], None]
GetCallback = Callable[[bool], None]


@dataclass(frozen=True)
class LsmConfig:
    """Engine tuning (defaults scaled to the ~256 MiB simulated SSDs)."""

    record_bytes: int = 1024
    memtable_bytes: int = 256 * 1024
    #: Flush/compaction IO unit (pages).
    io_pages: int = 32
    l0_compaction_trigger: int = 4
    l0_stall_trigger: int = 12
    level_ratio: int = 4
    max_levels: int = 4
    bloom_fp_rate: float = 0.01
    #: WAL group-commit batch bound (pages).
    wal_batch_pages: int = 8
    #: CPU cost of a lookup served without IO (memtable hit, definite
    #: miss, in-memory scan).  Must be positive: a closed-loop client
    #: over a memtable-resident dataset would otherwise issue infinite
    #: operations without simulated time ever advancing.
    mem_read_us: float = 1.0

    def __post_init__(self) -> None:
        if self.record_bytes <= 0 or self.memtable_bytes < self.record_bytes:
            raise ValueError("invalid record/memtable sizes")
        if self.l0_stall_trigger < self.l0_compaction_trigger:
            raise ValueError("stall trigger must be >= compaction trigger")
        if self.level_ratio < 2 or self.max_levels < 2:
            raise ValueError("invalid level shape")
        if not 0.0 <= self.bloom_fp_rate < 1.0:
            raise ValueError("bloom FP rate must be in [0, 1)")
        if self.mem_read_us <= 0:
            raise ValueError("in-memory read cost must be positive")

    @property
    def records_per_page(self) -> int:
        return max(1, 4096 // self.record_bytes)


class SsTable:
    """One immutable sorted run with a per-table bloom filter."""

    def __init__(
        self, keys: List[int], file: BlobFile, level: int, bloom_fp_rate: float = 0.01
    ):
        self.table_id = next(_table_ids)
        self.keys = keys  # sorted
        self.keyset = frozenset(keys)
        self.bloom = BloomFilter.from_keys(keys, bloom_fp_rate)
        self.file = file
        self.level = level

    @property
    def min_key(self) -> int:
        return self.keys[0]

    @property
    def max_key(self) -> int:
        return self.keys[-1]

    @property
    def size_pages(self) -> int:
        return self.file.size_pages

    def covers(self, key: int) -> bool:
        return self.min_key <= key <= self.max_key

    def overlaps(self, other: "SsTable") -> bool:
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def page_of(self, key: int, records_per_page: int) -> int:
        index = bisect.bisect_left(self.keys, key)
        return index // records_per_page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SsTable(#{self.table_id} L{self.level} [{self.min_key},{self.max_key}] n={len(self.keys)})"


@dataclass
class LsmStats:
    """Engine-level counters."""

    puts: int = 0
    gets: int = 0
    memtable_hits: int = 0
    table_reads: int = 0
    bloom_false_positives: int = 0
    flushes: int = 0
    compactions: int = 0
    stalled_puts: int = 0


class LsmTree:
    """One DB instance."""

    def __init__(
        self,
        name: str,
        store: Blobstore,
        sim: Simulator,
        config: Optional[LsmConfig] = None,
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self.store = store
        self.sim = sim
        self.config = config or LsmConfig()
        self._mem_read_us = self.config.mem_read_us
        self.rng = rng or random.Random(0)
        self.memtable: Dict[int, bool] = {}
        self._memtable_bytes = 0
        self.immutable: Optional[Dict[int, bool]] = None
        self.levels: List[List[SsTable]] = [[] for _ in range(self.config.max_levels)]
        self.stats = LsmStats()
        # WAL state (group commit).
        self._wal_file = store.create(f"{name}/wal")
        store.extend(self._wal_file, self.config.io_pages)
        self._wal_cursor = 0
        self._wal_pending: Deque[Tuple[PutCallback, int]] = deque()
        self._wal_inflight = False
        # Flush / compaction / stall state.
        self._flushing = False
        self._compacting = False
        self._stall_queue: Deque[Tuple[int, PutCallback]] = deque()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: int, on_done: PutCallback) -> None:
        """Insert/update ``key``; ``on_done`` fires once WAL-durable."""
        if self._write_stalled():
            self.stats.stalled_puts += 1
            self._stall_queue.append((key, on_done))
            return
        self._apply_put(key, on_done)

    def _write_stalled(self) -> bool:
        return len(self.levels[0]) >= self.config.l0_stall_trigger or (
            self.immutable is not None and self._memtable_full()
        )

    def _memtable_full(self) -> bool:
        return self._memtable_bytes >= self.config.memtable_bytes

    def _apply_put(self, key: int, on_done: PutCallback) -> None:
        self.stats.puts += 1
        if key not in self.memtable:
            self._memtable_bytes += self.config.record_bytes
        self.memtable[key] = True
        self._wal_pending.append((on_done, key))
        self._wal_kick()
        if self._memtable_full() and self.immutable is None:
            self._rotate_memtable()

    # -- WAL group commit ------------------------------------------------
    def _wal_kick(self) -> None:
        if self._wal_inflight or not self._wal_pending:
            return
        config = self.config
        max_records = config.wal_batch_pages * config.records_per_page
        batch = [self._wal_pending.popleft() for _ in range(min(max_records, len(self._wal_pending)))]
        npages = max(
            1, (len(batch) * config.record_bytes + 4095) // 4096
        )
        if self._wal_cursor + npages > self._wal_file.size_pages:
            self._wal_cursor = 0  # circular log
        offset = self._wal_cursor
        self._wal_cursor += npages
        self._wal_inflight = True

        def committed() -> None:
            self._wal_inflight = False
            for on_done, _ in batch:
                on_done()
            self._wal_kick()

        self.store.write(self._wal_file, offset, npages, committed, priority=1)

    # -- memtable flush ---------------------------------------------------
    def _rotate_memtable(self) -> None:
        self.immutable = self.memtable
        self.memtable = {}
        self._memtable_bytes = 0
        if not self._flushing:
            self._start_flush()

    def _start_flush(self) -> None:
        assert self.immutable is not None
        self._flushing = True
        snapshot = self.immutable
        keys = sorted(snapshot)
        self.stats.flushes += 1
        self._write_table(
            keys, level=0, on_done=lambda table: self._flush_done(table)
        )

    def _flush_done(self, table: SsTable) -> None:
        self.levels[0].append(table)
        self.immutable = None
        self._flushing = False
        self._drain_stall_queue()
        if self._memtable_full():
            self._rotate_memtable()
        self._maybe_compact()

    def _drain_stall_queue(self) -> None:
        while self._stall_queue and not self._write_stalled():
            key, on_done = self._stall_queue.popleft()
            self._apply_put(key, on_done)

    # -- table writing ------------------------------------------------
    def _table_pages(self, nkeys: int) -> int:
        return max(1, (nkeys * self.config.record_bytes + 4095) // 4096)

    def _write_table(
        self, keys: List[int], level: int, on_done: Callable[[SsTable], None]
    ) -> None:
        """Persist a sorted run as a new blob file, chunk by chunk."""
        npages = self._table_pages(len(keys))
        file = self.store.create(f"{self.name}/sst-{next(_table_ids)}")
        self.store.extend(file, npages)
        table = SsTable(keys, file, level, bloom_fp_rate=self.config.bloom_fp_rate)
        config = self.config

        def write_chunk(offset: int) -> None:
            if offset >= npages:
                on_done(table)
                return
            take = min(config.io_pages, npages - offset)
            self.store.write(file, offset, take, lambda: write_chunk(offset + take))

        write_chunk(0)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _level_target_pages(self, level: int) -> int:
        base = self._table_pages(self.config.memtable_bytes // self.config.record_bytes)
        return base * (self.config.level_ratio ** level) * self.config.l0_compaction_trigger

    def _maybe_compact(self) -> None:
        if self._compacting:
            return
        if len(self.levels[0]) >= self.config.l0_compaction_trigger:
            self._start_compaction(0)
            return
        for level in range(1, self.config.max_levels - 1):
            used = sum(table.size_pages for table in self.levels[level])
            if used > self._level_target_pages(level):
                self._start_compaction(level)
                return

    def _start_compaction(self, level: int) -> None:
        self._compacting = True
        self.stats.compactions += 1
        if level == 0:
            sources = list(self.levels[0])
        else:
            sources = [self.levels[level][0]]
        next_level = min(level + 1, self.config.max_levels - 1)
        overlapping = [
            table
            for table in self.levels[next_level]
            if any(source.overlaps(table) for source in sources)
        ]
        inputs = sources + overlapping

        def merge_and_write() -> None:
            merged: set = set()
            for table in inputs:
                merged.update(table.keyset)
            keys = sorted(merged)
            if not keys:
                finish([])
                return
            self._write_table(keys, next_level, lambda table: finish([table]))

        def finish(new_tables: List[SsTable]) -> None:
            for table in sources:
                self.levels[level].remove(table)
            for table in overlapping:
                self.levels[next_level].remove(table)
            self.levels[next_level].extend(new_tables)
            self.levels[next_level].sort(key=lambda table: table.min_key)
            for table in inputs:
                self.store.delete(table.file)
            self._compacting = False
            self._drain_stall_queue()
            self._maybe_compact()

        self._read_tables_then(inputs, merge_and_write)

    def _read_tables_then(self, tables: List[SsTable], on_done: Callable[[], None]) -> None:
        """Sequentially read every input table (compaction ingest IO)."""
        pending = {"count": 0}
        started = {"all": False}

        def one_done() -> None:
            pending["count"] -= 1
            if pending["count"] == 0 and started["all"]:
                on_done()

        for table in tables:
            offset = 0
            while offset < table.size_pages:
                take = min(self.config.io_pages, table.size_pages - offset)
                pending["count"] += 1
                self.store.read(table.file, offset, take, one_done)
                offset += take
        started["all"] = True
        if pending["count"] == 0:
            on_done()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: int, on_done: GetCallback) -> None:
        """Point lookup; ``on_done(found)`` after any needed IO."""
        self.stats.gets += 1
        if key in self.memtable or (self.immutable is not None and key in self.immutable):
            self.stats.memtable_hits += 1
            # Nobody keeps (or could cancel) an in-memory completion, so
            # it is scheduled without a handle, like the datapath's.
            sim = self.sim
            sim.at_(sim.now + self._mem_read_us, on_done, True)
            return
        candidates = self._candidate_tables(key)
        self._probe(key, candidates, 0, on_done)

    def _candidate_tables(self, key: int) -> List[SsTable]:
        candidates = [table for table in reversed(self.levels[0]) if table.covers(key)]
        for level in range(1, self.config.max_levels):
            for table in self.levels[level]:
                if table.covers(key):
                    candidates.append(table)
                    break
        return candidates

    def _probe(self, key: int, tables: List[SsTable], index: int, on_done: GetCallback) -> None:
        while index < len(tables):
            table = tables[index]
            if not table.bloom.might_contain(key):
                # Definitely absent: the filter saves the data read.
                index += 1
                continue
            if key in table.keyset:
                self.stats.table_reads += 1
                page = table.page_of(key, self.config.records_per_page)
                self.store.read(table.file, page, 1, lambda: on_done(True), priority=1)
                return
            # Bloom false positive: a wasted data read, then move on.
            self.stats.bloom_false_positives += 1
            self.stats.table_reads += 1
            page = self.rng.randrange(table.size_pages)
            next_index = index + 1
            self.store.read(
                table.file,
                page,
                1,
                lambda: self._probe(key, tables, next_index, on_done),
                priority=1,
            )
            return
        sim = self.sim
        sim.at_(sim.now + self._mem_read_us, on_done, False)

    # ------------------------------------------------------------------
    # Range scans (YCSB-E)
    # ------------------------------------------------------------------
    def scan(self, start_key: int, count: int, on_done: Callable[[List[int]], None]) -> None:
        """Return the ``count`` smallest keys >= ``start_key``.

        The key merge is computed from the in-memory indexes; each
        contributing SSTable is then read over the page span covering
        its contributed records (LSM scans are sequentialised range
        reads, which is why workload E is IO-heavy).
        """
        if count <= 0:
            raise ValueError("scan count must be positive")
        self.stats.gets += 1
        candidates: set = set()
        for source in (self.memtable, self.immutable or {}):
            for key in source:
                if key >= start_key:
                    candidates.add(key)
        touched_tables: List[Tuple[SsTable, int, int]] = []
        for level in self.levels:
            for table in level:
                if table.max_key < start_key:
                    continue
                first = bisect.bisect_left(table.keys, start_key)
                last = min(len(table.keys), first + count)
                if first >= len(table.keys):
                    continue
                for key in table.keys[first:last]:
                    candidates.add(key)
                touched_tables.append((table, first, last))
        result = sorted(candidates)[:count]
        if not result:
            sim = self.sim
            sim.at_(sim.now + self._mem_read_us, on_done, [])
            return
        # Read the page span each contributing table covers.
        pending = {"count": 0}
        started = {"all": False}

        def one_done() -> None:
            pending["count"] -= 1
            if pending["count"] == 0 and started["all"]:
                on_done(result)

        upper = result[-1]
        per_page = self.config.records_per_page
        for table, first, last in touched_tables:
            # Clip the span to keys that made the final result.
            last = bisect.bisect_right(table.keys, upper, first, last)
            if last <= first:
                continue
            first_page = first // per_page
            last_page = (last - 1) // per_page
            npages = min(last_page - first_page + 1, table.size_pages - first_page)
            if npages <= 0:
                continue
            pending["count"] += 1
            self.stats.table_reads += 1
            self.store.read(table.file, first_page, npages, one_done)
        started["all"] = True
        if pending["count"] == 0:
            sim = self.sim
            sim.at_(sim.now + self._mem_read_us, on_done, result)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """No background work in flight or queued.

        A departing tenant must wait for this before deleting its
        files: a mid-flight flush or compaction still references (and
        will itself delete) table files, so tearing them down early
        would double-free their blobs.
        """
        return not (
            self._flushing
            or self._compacting
            or self._wal_inflight
            or self._wal_pending
            or self._stall_queue
            or self.immutable is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "/".join(str(len(level)) for level in self.levels)
        return f"LsmTree({self.name}, mem={len(self.memtable)} keys, levels={shape})"
