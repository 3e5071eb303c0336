"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.ssd.geometry import SsdGeometry


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_geometry() -> SsdGeometry:
    """A small device (speeds up conditioning-heavy tests).

    The higher overprovisioning keeps enough slack blocks per channel
    for the GC watermarks despite the short channels.
    """
    return SsdGeometry(
        num_channels=4, blocks_per_channel=12, pages_per_block=64, overprovision=0.35
    )
