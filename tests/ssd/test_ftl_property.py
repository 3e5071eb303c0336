"""Property-based tests for the FTL.

Hypothesis drives randomized op sequences (write / trim / lookup)
against a small FTL and checks the structural invariants a
page-mapped FTL must keep under any interleaving:

* **page conservation** -- the set of mapped LPNs equals exactly the
  LPNs written and not since trimmed, regardless of how much GC has
  shuffled the physical side;
* **mapping bijection** -- no two live LPNs share a physical page;
* **free-block accounting** -- every block is in exactly one pool
  (free / closed / open), never duplicated, never leaked;
* **monotone erase counts** -- erases only accumulate.

``CONFIGS`` names the FTLs the properties run on (the reference FTL;
``test_ftl_reference.py`` adds geometries for ``write_run``).
``derandomize`` keeps the suite deterministic in CI.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ssd.ftl import Ftl
from repro.ssd.geometry import SsdGeometry

GEOMETRY = SsdGeometry(
    num_channels=2, blocks_per_channel=12, pages_per_block=16, overprovision=0.4
)
EXPORTED = GEOMETRY.exported_pages

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference():
    return Ftl(GEOMETRY)


CONFIGS = {"reference": _reference}

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim", "lookup"]),
        st.integers(min_value=0, max_value=EXPORTED - 1),
    ),
    min_size=1,
    max_size=300,
)


def _run_ops(ftl: Ftl, ops) -> dict:
    """Apply the op sequence, maintaining the oracle model and checking
    invariants after every step."""
    model = set()
    last_total_erases = 0
    for op, lpn in ops:
        if op == "write":
            ppn, _work = ftl.write_page(lpn)
            assert ppn >= 0
            model.add(lpn)
        elif op == "trim":
            ftl.trim_page(lpn)
            model.discard(lpn)
        else:
            ppn = ftl.lookup(lpn)
            assert (ppn != -1) == (lpn in model)
        ftl.check_invariants()
        total = sum(ftl._erase_counts)
        assert total >= last_total_erases, "erase counts went backwards"
        last_total_erases = total
    return {"model": model}


@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestFtlProperties:
    @given(ops=ops_strategy)
    @SETTINGS
    def test_conservation_and_invariants(self, config, ops):
        ftl = CONFIGS[config]()
        state = _run_ops(ftl, ops)
        model = state["model"]
        # Page conservation: mapped set == written-minus-trimmed set.
        assert ftl.mapped_pages == len(model)
        for lpn in range(EXPORTED):
            assert (ftl.lookup(lpn) != -1) == (lpn in model)

    @given(ops=ops_strategy)
    @SETTINGS
    def test_mapping_is_injective(self, config, ops):
        ftl = CONFIGS[config]()
        _run_ops(ftl, ops)
        live = [ppn for ppn in ftl.page_map if ppn != -1]
        assert len(live) == len(set(live)), "two LPNs share a physical page"

    @given(ops=ops_strategy)
    @SETTINGS
    def test_free_block_accounting(self, config, ops):
        ftl = CONFIGS[config]()
        _run_ops(ftl, ops)
        free = sum(ftl.free_blocks_on_channel(c) for c in range(GEOMETRY.num_channels))
        # check_invariants (already run per-op) proves the full
        # partition; here pin the coarse balance too.
        assert 0 <= free <= GEOMETRY.total_blocks

    @given(ops=ops_strategy)
    @SETTINGS
    def test_snapshot_restore_preserves_everything(self, config, ops):
        ftl = CONFIGS[config]()
        _run_ops(ftl, ops)
        clone = CONFIGS[config]()
        clone.restore(ftl.snapshot())
        clone.check_invariants()
        assert clone.page_map == ftl.page_map
        assert clone.stats == ftl.stats
        assert clone._erase_counts == ftl._erase_counts
