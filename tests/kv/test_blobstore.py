"""Tests for the blobstore (replication, load balancing, file IO)."""

from __future__ import annotations

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.network import Network
from repro.fabric.policies import UnlimitedClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.kv.allocator import GlobalBlobAllocator, LocalBlobAllocator
from repro.kv.backend import RemoteBackend
from repro.kv.blobstore import Blobstore
from repro.ssd.device import NullDevice
from repro.workloads.patterns import AddressRegion


def build_store(sim, num_backends=2, load_balance=True):
    network = Network(sim)
    devices = {f"ssd{i}": NullDevice(sim, name=f"ssd{i}") for i in range(num_backends)}
    target = NvmeOfTarget(sim, network, "jbof", devices, FifoScheduler)
    initiator = NvmeOfInitiator(sim, network, "client")
    global_allocator = GlobalBlobAllocator(mega_pages=256)
    backends = {}
    for name in devices:
        backend_name = f"jbof/{name}"
        global_allocator.register_backend(backend_name, AddressRegion(0, 4096))
        session = initiator.connect(
            f"db@{backend_name}", target, name, policy=UnlimitedClientPolicy()
        )
        backends[backend_name] = RemoteBackend(backend_name, session)
    local = LocalBlobAllocator(global_allocator, micro_pages=64)
    return Blobstore(local, backends, load_balance_reads=load_balance)


class TestFiles:
    def test_create_and_extend(self, sim):
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 100)
        assert file.size_pages >= 100
        assert file.size_pages % 64 == 0

    def test_duplicate_create_rejected(self, sim):
        store = build_store(sim)
        store.create("f")
        with pytest.raises(ValueError):
            store.create("f")

    def test_replicas_on_distinct_backends(self, sim):
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 256)
        for primary, shadow in zip(file.primary, file.shadow):
            assert primary.backend != shadow.backend

    def test_replication_needs_two_backends(self, sim):
        with pytest.raises(ValueError):
            build_store(sim, num_backends=1)

    def test_delete_frees_blobs(self, sim):
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 64)
        held_before = store.allocator.held_megas
        live_before = store.allocator.live_micros
        store.delete(file)
        # Primary + shadow freed; their megas (now wholly free) went
        # back to the global pool instead of lingering in the local one.
        assert store.allocator.live_micros == live_before - 2
        assert store.allocator.held_megas < held_before
        assert "f" not in store.files

    def test_delete_then_departure_leaks_no_megas(self, sim):
        store = build_store(sim)
        total = store.allocator.global_allocator.total_megas
        files = []
        for index in range(4):
            file = store.create(f"f{index}")
            store.extend(file, 256)
            files.append(file)
        for file in files:
            store.delete(file)
        store.allocator.release_all()
        assert store.allocator.global_allocator.total_available_megas == total


class TestIo:
    def test_write_completes_after_both_replicas(self, sim):
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 64)
        done = []
        store.write(file, 0, 32, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        primary_backend = store.backends[file.primary[0].backend]
        shadow_backend = store.backends[file.shadow[0].backend]
        assert primary_backend.writes == 1
        assert shadow_backend.writes == 1

    def test_read_crossing_blob_boundary_splits(self, sim):
        store = build_store(sim, load_balance=False)
        file = store.create("f")
        store.extend(file, 128)
        done = []
        store.read(file, 60, 8, lambda: done.append(True))
        sim.run()
        assert done == [True]
        total_reads = sum(backend.reads for backend in store.backends.values())
        assert total_reads == 2

    def test_out_of_range_io_rejected(self, sim):
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 64)
        with pytest.raises(ValueError):
            store.write(file, 60, 10, lambda: None)
        with pytest.raises(ValueError):
            store.read(file, -1, 1, lambda: None)

    def test_load_balanced_reads_use_shadow_when_primary_loaded(self, sim):
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 64)
        primary = store.backends[file.primary[0].backend]
        # Fake load on the primary: outstanding against zero credit.
        for _ in range(10):
            primary.session.submit(
                __import__("repro.ssd.commands", fromlist=["IoOp"]).IoOp.READ, 0, 1
            )
        store.read(file, 0, 1, lambda: None)
        assert store.reads_to_shadow == 1

    def test_reads_without_load_balancing_go_primary(self, sim):
        store = build_store(sim, load_balance=False)
        file = store.create("f")
        store.extend(file, 64)
        for _ in range(5):
            store.read(file, 0, 1, lambda: None)
        assert store.reads_to_primary == 5
        assert store.reads_to_shadow == 0

    def test_tied_load_scores_alternate_between_replicas(self, sim):
        """Regression: an unloaded rack must not send 100% of reads to
        primaries -- tied load scores steer by cumulative reads."""
        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 64)
        for _ in range(10):
            store.read(file, 0, 1, lambda: None)
            sim.run()  # drain so both backends return to zero load
        assert store.reads_to_primary == 5
        assert store.reads_to_shadow == 5


class TestRemoteBackend:
    def test_credit_tracked_from_completions(self, sim):
        from repro.core.switch import GimbalScheduler
        from repro.fabric.policies import CreditClientPolicy

        network = Network(sim)
        target = NvmeOfTarget(sim, network, "j", {"s": NullDevice(sim)}, GimbalScheduler)
        initiator = NvmeOfInitiator(sim, network, "c")
        session = initiator.connect("t", target, "s", policy=CreditClientPolicy())
        backend = RemoteBackend("j/s", session)
        done = []
        backend.read(0, 1, done.append)
        sim.run()
        assert backend.credit == done[0].credit_grant > 0

    def test_load_score_prefers_credit_headroom(self, sim):
        store = build_store(sim)
        backend = next(iter(store.backends.values()))
        backend.credit = 10
        assert backend.load_score == -10  # idle with credit: very light
