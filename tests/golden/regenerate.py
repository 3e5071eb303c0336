"""Regenerate the golden-figure JSON files.

Run after an *intentional* behaviour change (new scheduler logic, new
seed derivation, retuned device profile) and commit the diff::

    PYTHONPATH=src python tests/golden/regenerate.py

The configs here are the single source of truth -- the golden tests
import them, so the test always runs exactly what the files record.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from unittest import mock

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Small fixed-window, fixed-seed configs: big enough for stable
#: qualitative shape, small enough for tier-1 runtime.
GOLDEN_CONFIGS = {
    "fig02": {"measure_us": 20_000.0},
    "fig07": {
        "measure_us": 30_000.0,
        "warmup_us": 15_000.0,
        "workers_per_class": 2,
        "standalone_measure_us": 100_000.0,
    },
    "table1": {"measure_us": 20_000.0},
}


#: The decision-identity rig (``tests/core/test_switch_identity.py``):
#: a seeded Gimbal testbed small enough for tier-1, with 4 KiB and
#: 128 KiB tenants on both sides of a fragmented device, so tokens,
#: deficits and virtual slots all bind and both monitors visit all four
#: congestion states (overload discards included) within the run.
SWITCH_IDENTITY_CONFIG = {
    "seed": 7,
    "condition": "fragmented",
    "reader_pages": [1, 1, 32, 32],
    "writer_pages": [1, 1, 32, 32],
    "region_pages": 1600,
    "run_us": 60_000.0,
}


def switch_identity_digest() -> dict:
    """Hash every admission decision and rate/cost move of one run.

    ``decisions`` covers the ordered ``(now, tenant, op, lba)`` stream
    at ``SsdPipeline.device_submit``; ``trajectory`` covers
    ``(now, rate.target_rate, write_cost.cost)`` sampled after every
    device completion.  Floats are hashed by their IEEE-754 bytes, so
    one flipped bit in the switch's arithmetic changes the digest.
    """
    from repro.fabric.pipeline import SsdPipeline
    from repro.harness.experiments.common import read_spec, write_spec
    from repro.harness.testbed import Testbed, TestbedConfig

    config = SWITCH_IDENTITY_CONFIG
    decisions = hashlib.sha256()
    trajectory = hashlib.sha256()
    counts = {"submits": 0, "completions": 0}
    device_submit = SsdPipeline.device_submit
    device_completed = SsdPipeline._device_completed

    def recording_submit(pipeline, request):
        counts["submits"] += 1
        decisions.update(struct.pack("<d", pipeline.sim.now))
        decisions.update(
            f"{request.tenant_id}|{request.op.value}|{request.lba};".encode("ascii")
        )
        device_submit(pipeline, request)

    def recording_completed(pipeline, command):
        device_completed(pipeline, command)
        counts["completions"] += 1
        switch = pipeline.scheduler
        trajectory.update(
            struct.pack(
                "<ddd", pipeline.sim.now, switch.rate.target_rate, switch.write_cost.cost
            )
        )

    # Patched on the class, before the testbed exists, so a switch that
    # caches the bound method at attach time is still observed.
    with mock.patch.object(SsdPipeline, "device_submit", recording_submit), mock.patch.object(
        SsdPipeline, "_device_completed", recording_completed
    ):
        testbed = Testbed(
            TestbedConfig(scheme="gimbal", condition=config["condition"], seed=config["seed"])
        )
        for index, pages in enumerate(config["reader_pages"]):
            testbed.add_worker(read_spec(f"r{index}", pages), region_pages=config["region_pages"])
        for index, pages in enumerate(config["writer_pages"]):
            testbed.add_worker(write_spec(f"w{index}", pages), region_pages=config["region_pages"])
        for worker in testbed.workers:
            worker.start()
        testbed.sim.run(until_us=config["run_us"])
    return {
        "decisions": decisions.hexdigest(),
        "trajectory": trajectory.hexdigest(),
        **counts,
    }


def conditioning_digest() -> dict:
    """Hash the complete FTL state each conditioning routine leaves.

    One sha256 per conditioned device over every field of
    ``Ftl.snapshot()`` (mapping, reverse map, valid counts, block
    pools, open slots, wear, stats, pending map traffic, the mapping
    cache's state), with the lifetime program/erase counts alongside
    so a mismatch says which way the layout moved.  The snapshot is
    taken from the conditioning cache's entry, i.e. before conditioning
    zeroes the counters.  The last rig is the ``aging`` experiment's
    device: spare blocks to retire, a DFTL cache small enough to thrash
    and an endurance limit the aged wear clamps against.
    """
    from repro.harness.experiments import aging
    from repro.sim import Simulator
    from repro.ssd import (
        SsdDevice,
        SsdGeometry,
        age_device,
        clear_conditioning_cache,
        precondition_clean,
        precondition_fragmented,
        profile_by_name,
    )
    from repro.ssd.conditioning import _snapshot_cache

    profile = profile_by_name("dct983")
    rigs = {
        "clean": (precondition_clean, {}, SsdGeometry(), profile),
        "fragmented": (precondition_fragmented, {}, SsdGeometry(), profile),
        "aged": (age_device, {"age": 0.5}, SsdGeometry(), profile),
        "aged_dftl_endurance": (
            age_device,
            {"age": 0.5},
            aging._aged_geometry(),
            profile.with_overrides(
                map_cache_pages=8,
                endurance_cycles=aging.ENDURANCE_CYCLES,
                static_wear_threshold=aging.STATIC_WL_THRESHOLD,
            ),
        ),
    }
    digests = {}
    for name, (condition, kwargs, geometry, rig_profile) in rigs.items():
        clear_conditioning_cache()
        condition(SsdDevice(Simulator(), profile=rig_profile, geometry=geometry), **kwargs)
        (snap,) = _snapshot_cache.values()
        stats = snap["stats"]
        state = dict(snap, stats=vars(stats))
        if snap["map_cache"] is not None:
            # Residency order is LRU state: hash it as a sequence.
            resident = list(snap["map_cache"]["resident"].items())
            state["map_cache"] = dict(snap["map_cache"], resident=resident)
        digests[name] = {
            "state": hashlib.sha256(
                json.dumps(state, sort_keys=True).encode("ascii")
            ).hexdigest(),
            "host_programs": stats.host_programs,
            "gc_programs": stats.gc_programs,
            "wl_programs": stats.wl_programs,
            "erases": stats.erases,
        }
    clear_conditioning_cache()
    return digests


def _write(name: str, payload: dict) -> None:
    path = DATA_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    from repro.harness.experiments import fig02_unloaded_latency as fig02
    from repro.harness.experiments import fig07_fairness as fig07
    from repro.harness.experiments import table1_overheads as table1

    modules = {"fig02": fig02, "fig07": fig07, "table1": table1}
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, kwargs in GOLDEN_CONFIGS.items():
        _write(name, modules[name].run(**kwargs))
    _write("switch_identity", switch_identity_digest())
    _write("conditioning_identity", conditioning_digest())


if __name__ == "__main__":
    main()
