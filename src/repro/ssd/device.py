"""The SSD device: analytic timing over controller + channel resources.

A command books busy time on the controller and the NAND channels the
moment the device accepts it, and exactly one completion event fires
when the slowest booked resource finishes.  Because every resource is
FCFS, booking at acceptance preserves ordering while avoiding per-page
events -- the property that lets pure Python simulate hundreds of
thousands of IOPS.

Phenomena reproduced (and where they come from):

========================  ==============================================
load-latency impulse      bookings queue behind ``busy_until`` horizons
IO-size asymmetry         per-command controller cost; page striping
read/write interference   programs and reads share channel timelines
clean/fragmented cliff    FTL garbage-collection debt charged to writes
burst absorption          short bursts program on idle channels and
                          complete fast; sustained writes observe the
                          program-queue sojourn (incl. GC debt)
========================  ==============================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.trace import TraceType
from repro.sim.engine import Simulator
from repro.ssd.commands import OP_READ, OP_TRIM, DeviceCommand
from repro.ssd.ftl import Ftl, GcWork
from repro.ssd.geometry import SsdGeometry
from repro.ssd.profiles import DCT983_PROFILE, DeviceProfile
from repro.ssd.write_buffer import WriteBuffer

CompletionCallback = Callable[[DeviceCommand], None]


@dataclass
class DeviceStats:
    """Host-visible command counters (FTL keeps the program/erase side)."""

    read_commands: int = 0
    write_commands: int = 0
    trim_commands: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    trimmed_pages: int = 0
    buffer_read_hits: int = 0


class SsdDevice:
    """One simulated NVMe SSD."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile = DCT983_PROFILE,
        geometry: Optional[SsdGeometry] = None,
        name: str = "ssd0",
    ):
        self.sim = sim
        self.profile = profile
        self.geometry = geometry or SsdGeometry()
        self.name = name
        # Command completions all land on ``_complete``: the population
        # pre-binds it, so each completion is one heap push carrying one
        # payload (the command).
        self._complete_pop = sim.population(self._complete)
        self.ftl = Ftl(
            self.geometry,
            gc_low_water=profile.gc_low_water_blocks,
            gc_high_water=profile.gc_high_water_blocks,
        )
        self.buffer = WriteBuffer(profile.buffer_pages)
        self._ctrl_busy_until = 0.0
        # Two horizons per channel approximate program/GC suspension in
        # favour of reads:
        #  - the *foreground* horizon carries raw read transfers and raw
        #    program occupancy -- what a read has to queue behind;
        #  - the *write-path* horizon additionally carries GC debt and
        #    erases -- what the next program (and the buffer release
        #    that paces host writes) has to queue behind.
        self._fg_horizon: List[float] = [0.0] * self.geometry.num_channels
        self._wr_horizon: List[float] = [0.0] * self.geometry.num_channels
        self._gc_debt_us: List[float] = [0.0] * self.geometry.num_channels
        self._pending_writes: Deque[Tuple[DeviceCommand, float]] = deque()
        # Buffer releases grouped by completion timestamp: commands
        # whose last program finishes at the same instant share one
        # drain event (and one admission pass) instead of one each.
        self._drain_schedule: Dict[float, List[range]] = {}
        self._drain_events: Dict[float, object] = {}
        # Hot-path constants hoisted out of the per-command handlers.
        self._exported_pages = self.geometry.exported_pages
        self._t_ctrl_cmd_us = profile.t_ctrl_cmd_us
        self._num_channels = self.geometry.num_channels
        self._pages_per_block = self.geometry.pages_per_block
        # The buffered-LPN multiset survives buffer.clear(): the read
        # path probes it and the write path admits into and releases
        # from it in place, without a method call per page.
        self._buffered_lpns = self.buffer.lpn_counts
        self.outstanding = 0
        self.stats = DeviceStats()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def exported_pages(self) -> int:
        return self.geometry.exported_pages

    def submit(self, cmd: DeviceCommand, on_complete: CompletionCallback) -> None:
        """Accept a command; ``on_complete(cmd)`` fires at completion time.

        The callback is parked on the command: the completion event
        carries the command alone.
        """
        cmd._on_device_complete = on_complete
        npages = cmd.npages
        if cmd.lpn + npages > self._exported_pages:
            raise ValueError(
                f"{cmd!r} beyond exported capacity ({self._exported_pages} pages)"
            )
        now = self.sim.now
        cmd.submit_time = now
        self.outstanding += 1
        busy = self._ctrl_busy_until
        ctrl_done = (now if now > busy else busy) + self._t_ctrl_cmd_us
        self._ctrl_busy_until = ctrl_done
        op = cmd.op
        stats = self.stats
        if op is OP_READ:
            stats.read_commands += 1
            stats.read_bytes += npages * 4096
            if npages == 1:
                # 4 KiB reads dominate the paper's workloads: the whole
                # booking (buffer probe, channel lookup, one horizon
                # touch, completion scheduling) runs inline here with
                # the channel lookup and ``_finalize`` unrolled.
                profile = self.profile
                lpn = cmd.lpn
                if lpn in self._buffered_lpns:
                    stats.buffer_read_hits += 1
                    done = ctrl_done + profile.t_buf_read_us
                else:
                    ppn = self.ftl.page_map[lpn]
                    if ppn < 0:
                        channel = lpn % self._num_channels
                    else:
                        channel = (ppn // self._pages_per_block) % self._num_channels
                    fg_horizon = self._fg_horizon
                    horizon = fg_horizon[channel]
                    channel_start = ctrl_done if ctrl_done > horizon else horizon
                    page_done = channel_start + profile.t_read_xfer_us
                    fg_horizon[channel] = page_done
                    done = page_done + profile.t_sense_us
                cmd.complete_time = done
                self._complete_pop.add(done, cmd)
            else:
                self._book_read(cmd, ctrl_done)
        elif op is OP_TRIM:
            # Deallocate is a pure FTL-metadata operation: no channel
            # work, acknowledged once the controller processes it.
            stats.trim_commands += 1
            stats.trimmed_pages += npages
            buffered = self._buffered_lpns
            for lpn in range(cmd.lpn, cmd.lpn + npages):
                if lpn not in buffered:
                    self.ftl.trim_page(lpn)
            self._finalize(cmd, ctrl_done)
        else:
            buffer = self.buffer
            if npages > buffer.capacity:
                raise ValueError(f"write of {npages} pages exceeds buffer capacity")
            stats.write_commands += 1
            stats.write_bytes += npages * 4096
            # Admission is FIFO: a write waits while an earlier one
            # does, so a big write cannot be starved by smaller ones
            # arriving behind it.  A queued head never fits (the drain
            # that frees space admits all it can), so with none queued
            # only room decides.  ``ctrl_done`` is never before now.
            if self._pending_writes or buffer.occupied + npages > buffer.capacity:
                self._pending_writes.append((cmd, ctrl_done))
            else:
                self._admit_write(cmd, ctrl_done)

    def reset_time_state(self) -> None:
        """Zero the timing horizons (used right after untimed conditioning)."""
        if self.outstanding:
            raise RuntimeError("cannot reset with commands in flight")
        self._ctrl_busy_until = 0.0
        self._fg_horizon = [0.0] * self.geometry.num_channels
        self._wr_horizon = [0.0] * self.geometry.num_channels
        self._gc_debt_us = [0.0] * self.geometry.num_channels
        # Cancel the in-flight buffer-drain events: their commands have
        # completed (host-visible writes finalize at admission), but a
        # stale drain firing after the buffer is cleared would release
        # pages that no longer exist -- resurrecting completed state
        # into the post-conditioning timeline.
        for event in self._drain_events.values():
            event.cancel()
        self._drain_events.clear()
        self._drain_schedule.clear()
        self.buffer.clear()
        self._pending_writes.clear()
        self.stats = DeviceStats()

    @property
    def write_amplification(self) -> float:
        return self.ftl.stats.write_amplification

    def metrics(self) -> dict:
        """Device, buffer and FTL state."""
        stats = self.stats
        ftl_stats = self.ftl.stats
        return {
            "read_commands": stats.read_commands,
            "write_commands": stats.write_commands,
            "trim_commands": stats.trim_commands,
            "read_bytes": stats.read_bytes,
            "write_bytes": stats.write_bytes,
            "buffer_read_hits": stats.buffer_read_hits,
            "outstanding": self.outstanding,
            "write_amplification": self.write_amplification,
            "buffer_occupied_pages": self.buffer.occupied,
            "gc_debt_us": sum(self._gc_debt_us),
            "ftl.host_programs": ftl_stats.host_programs,
            "ftl.gc_programs": ftl_stats.gc_programs,
            "ftl.erases": ftl_stats.erases,
        }

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _book_read(self, cmd: DeviceCommand, start: float) -> None:
        # Single-page reads never reach here: ``submit`` books them
        # inline.  This is the multi-page striping path.
        profile = self.profile
        buffered = self._buffered_lpns
        fg_horizon = self._fg_horizon
        page_map = self.ftl.page_map
        pages_per_block = self._pages_per_block
        num_channels = self._num_channels
        t_buf_read_us = profile.t_buf_read_us
        t_read_xfer_us = profile.t_read_xfer_us
        done = start
        touched_nand = False
        hits = 0
        for lpn in range(cmd.lpn, cmd.lpn + cmd.npages):
            if lpn in buffered:
                page_done = start + t_buf_read_us
                hits += 1
            else:
                ppn = page_map[lpn]
                if ppn < 0:
                    channel = lpn % num_channels
                else:
                    channel = ppn // pages_per_block % num_channels
                # Reads queue behind raw read/program occupancy only;
                # GC work is suspended in their favour.
                horizon = fg_horizon[channel]
                channel_start = start if start > horizon else horizon
                page_done = channel_start + t_read_xfer_us
                fg_horizon[channel] = page_done
                touched_nand = True
            if page_done > done:
                done = page_done
        if hits:
            self.stats.buffer_read_hits += hits
        if touched_nand:
            # NAND array sense is parallel across dies: it lengthens the
            # command but does not occupy the channel.
            done += profile.t_sense_us
        self._finalize(cmd, done)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _admit_write(self, cmd: DeviceCommand, admit_time: float) -> None:
        # The write hot path: one call per admitted command, and one
        # loop over its pages that buffers each page and books its
        # program.  The pages stay a range -- only ever iterated (here,
        # by the FTL and by the drain), never indexed, so nothing is
        # materialised.
        first_lpn = cmd.lpn
        npages = cmd.npages
        lpns = range(first_lpn, first_lpn + npages)
        buffer = self.buffer
        buffer.occupied += npages
        if buffer.occupied > buffer.capacity:
            raise RuntimeError("write buffer overcommitted")
        profile = self.profile
        # The host sees the write complete once it is safely buffered;
        # admission (and therefore host-visible write latency) backs up
        # only when the buffer is full, i.e. when the offered write
        # rate exceeds the NAND drain rate -- Section 3.4's "write rate
        # rises beyond the write buffer serving capability".
        done = admit_time + profile.t_buf_write_us
        cmd.complete_time = done
        self._complete_pop.add(done, cmd)
        t_prog_us = profile.t_prog_us
        gc_installment_us = profile.gc_installment_us
        gc_read_visible_fraction = profile.gc_read_visible_fraction
        gc_debt_us = self._gc_debt_us
        wr_horizon = self._wr_horizon
        fg_horizon = self._fg_horizon
        page_map = self.ftl.page_map
        pages_per_block = self._pages_per_block
        num_channels = self._num_channels
        buffered = self._buffered_lpns
        last_program_done = admit_time
        # ``write_pages`` lists the pages whose block-open collected,
        # in page order; ``gc_lpn`` is the next of them (-1: none left).
        gc_work = self.ftl.write_pages(lpns)
        gc_lpn = first_lpn + gc_work[0][0] if gc_work else -1
        for lpn in lpns:
            buffered[lpn] = buffered.get(lpn, 0) + 1
            # Each page's channel is read back from the mapping: a later
            # page's GC may have moved it, but never off its channel.
            channel = page_map[lpn] // pages_per_block % num_channels
            if lpn == gc_lpn:
                self._charge_gc(channel, gc_work.pop(0)[1])
                gc_lpn = first_lpn + gc_work[0][0] if gc_work else -1
            wr_before = wr_horizon[channel]
            channel_start = admit_time
            if wr_before > channel_start:
                channel_start = wr_before
            fg_before = fg_horizon[channel]
            if fg_before > channel_start:
                channel_start = fg_before
            # Garbage collection runs opportunistically: debt retired
            # while the write path sat idle is invisible to foreground
            # latency (background GC); only the remainder is charged to
            # this program, in bounded installments.  Without debt the
            # installment is zero and adds nothing.
            debt = gc_debt_us[channel]
            if debt:
                idle_gap = channel_start - wr_before
                if idle_gap > 0:
                    debt = debt - idle_gap
                    if debt < 0.0:
                        debt = 0.0
                debt_installment = debt if debt < gc_installment_us else gc_installment_us
                gc_debt_us[channel] = debt - debt_installment
                page_done = channel_start + t_prog_us + debt_installment
                # Reads queue behind the raw program plus the share of
                # GC that suspension cannot hide from them.
                fg_horizon[channel] = (
                    channel_start + t_prog_us + gc_read_visible_fraction * debt_installment
                )
            else:
                page_done = fg_horizon[channel] = channel_start + t_prog_us
            wr_horizon[channel] = page_done
            if page_done > last_program_done:
                last_program_done = page_done
        # Commands whose programs drain at the same instant share one
        # event: their buffer pages are released together (in admission
        # order) and one admission pass runs for the whole batch.
        schedule = self._drain_schedule
        batch = schedule.get(last_program_done)
        if batch is None:
            schedule[last_program_done] = [lpns]
            self._drain_events[last_program_done] = self.sim.at(
                last_program_done, self._on_channel_drain, last_program_done
            )
        else:
            batch.append(lpns)

    def _charge_gc(self, channel: int, work: GcWork) -> None:
        """Charge one block-open's GC work to ``channel`` as debt."""
        profile = self.profile
        gc_busy_us = (
            work.relocation_reads * profile.t_read_xfer_us
            + work.relocation_programs * profile.t_prog_us
            + work.erases * profile.t_erase_us
        )
        self._gc_debt_us[channel] += gc_busy_us
        tracer = self.sim.tracer
        if tracer is not None:
            # The FTL collects synchronously and the device charges the
            # busy time as channel debt, so GC "starts" at the admit and
            # logically "ends" once the charged debt has drained.
            now = self.sim.now
            tracer.emit(
                TraceType.GC_START,
                now,
                f"ssd.{self.name}",
                channel=channel,
                relocation_reads=work.relocation_reads,
                relocation_programs=work.relocation_programs,
                erases=work.erases,
                busy_us=gc_busy_us,
            )
            tracer.emit(
                TraceType.GC_END,
                now,
                f"ssd.{self.name}",
                channel=channel,
                drains_at_us=now + self._gc_debt_us[channel],
            )

    def _on_channel_drain(self, time_key: float) -> None:
        """Release the batch's buffer pages, then admit the eligible
        prefix of the pending-write queue (FIFO: it stops at the first
        write the buffer cannot hold)."""
        self._drain_events.pop(time_key, None)
        buffer = self.buffer
        buffered = self._buffered_lpns
        for lpns in self._drain_schedule.pop(time_key):
            # One C pass pops every page; only an LPN that another
            # in-flight write also buffered goes back, one copy fewer.
            try:
                counts = list(map(buffered.pop, lpns))
            except KeyError as missing:
                raise RuntimeError(
                    f"releasing LPN {missing.args[0]} that is not buffered"
                ) from None
            if counts.count(1) != len(counts):
                for lpn, count in zip(lpns, counts):
                    if count > 1:
                        buffered[lpn] = count - 1
            buffer.occupied -= len(lpns)
        pending = self._pending_writes
        while pending:
            cmd, ready_time = pending[0]
            if buffer.occupied + cmd.npages > buffer.capacity:
                return
            pending.popleft()
            now = self.sim.now
            self._admit_write(cmd, ready_time if ready_time > now else now)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finalize(self, cmd: DeviceCommand, done: float) -> None:
        cmd.complete_time = done
        self._complete_pop.add(done, cmd)

    def _complete(self, cmd: DeviceCommand) -> None:
        self.outstanding -= 1
        cmd._on_device_complete(cmd)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SsdDevice({self.name}, {self.profile.name}, {self.geometry})"


class NullDevice:
    """A device that completes every command immediately.

    Used for Table 1's maximum-IOPS measurement, where the SmartNIC
    core -- not the storage -- must be the bottleneck.
    """

    #: Large enough that no testbed region runs out.
    exported_pages = 1 << 30

    def __init__(self, sim: Simulator, name: str = "null0"):
        self.sim = sim
        self.name = name
        self.outstanding = 0
        self.stats = DeviceStats()

    def submit(self, cmd: DeviceCommand, on_complete: CompletionCallback) -> None:
        cmd._on_device_complete = on_complete
        cmd.submit_time = self.sim.now
        cmd.complete_time = self.sim.now
        if cmd.op is OP_READ:
            self.stats.read_commands += 1
            self.stats.read_bytes += cmd.size_bytes
        elif cmd.op is OP_TRIM:
            self.stats.trim_commands += 1
            self.stats.trimmed_pages += cmd.npages
        else:
            self.stats.write_commands += 1
            self.stats.write_bytes += cmd.size_bytes
        self.outstanding += 1
        self.sim.at_(self.sim.now, self._complete, cmd)

    def _complete(self, cmd: DeviceCommand) -> None:
        self.outstanding -= 1
        cmd._on_device_complete(cmd)

    @property
    def write_amplification(self) -> float:
        return 1.0

    def metrics(self) -> dict:
        stats = self.stats
        return {
            "read_commands": stats.read_commands,
            "write_commands": stats.write_commands,
            "trim_commands": stats.trim_commands,
            "outstanding": self.outstanding,
        }

    def reset_time_state(self) -> None:
        self.stats = DeviceStats()
