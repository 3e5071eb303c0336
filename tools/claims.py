#!/usr/bin/env python3
"""The paper's shape claims as one table, checked by one suite run.

::

    python tools/claims.py
    python tools/claims.py --quick SUITE_JSON

Each row of :data:`CLAIMS` is one shape the evaluation asserts (who
wins, by roughly what factor): a figure (a ``repro.harness.orchestrator.EXPERIMENTS``
key), the window it is measured at (the driver keywords), an extractor
over the driver's ``finalize`` output, and a predicate over the
extracted values.  The first form builds one ``ExperimentSpec`` per
figure, runs them all in one :func:`repro.harness.orchestrator.run_suite`
call (every core, through the result cache in ``REPRO_CACHE_DIR``, else
``.repro-cache``, so a rerun replays from disk), writes ``benchmarks/claims.json`` and the status table
between EXPERIMENTS.md's claims markers, and exits 1 if a row does not
hold.  The second checks only the rows marked ``quick`` (their
predicates also hold at ``repro run --quick`` windows) against the
output of ``python -m repro suite --quick --json SUITE_JSON`` and writes
nothing.

Results are round-tripped through JSON before any row reads them, so a
full run and a ``--quick`` check see the same types.  A row whose
result lacks what its extractor reads does not hold, with the error as
its measured value.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.harness.orchestrator import EXPERIMENTS  # noqa: E402

RECORD = ROOT / "benchmarks" / "claims.json"
DOC = ROOT / "EXPERIMENTS.md"
BEGIN, END = "<!-- claims:begin -->", "<!-- claims:end -->"


@dataclass(frozen=True)
class Claim:
    """One row: ``holds(*extract(result))`` at ``figure``'s ``window``."""

    id: str
    extract: Callable[[Any], tuple]
    holds: Callable[..., bool]
    paper: str
    reason: str = ""
    deviation: Optional[int] = None  # EXPERIMENTS.md's known-deviation number
    quick: bool = False  # also holds at the figure's --quick window
    figure: str = ""
    window: Mapping[str, Any] = field(default_factory=dict)


def figure(name: str, window: Mapping[str, Any], *claims: Claim) -> List[Claim]:
    return [replace(claim, figure=name, window=window) for claim in claims]


def table(*key: str, name: str = "rows") -> Callable[[Any], Dict[tuple, Any]]:
    """``result[name]`` as ``{(*key fields, column[, sub-key]): value}``."""

    def index(result: Any) -> Dict[tuple, Any]:
        cells = {}
        for row in result[name]:
            prefix = tuple(row[f] for f in key)
            for column, value in row.items():
                if isinstance(value, dict):
                    cells.update({prefix + (column, k): v for k, v in value.items()})
                else:
                    cells[prefix + (column,)] = value
        return cells

    return index


def pick(index: Callable[[Any], Dict[tuple, Any]], *cells: tuple) -> Callable[[Any], tuple]:
    return lambda result: tuple(index(result)[cell] for cell in cells)


def column(result: Any, name: str, rows: str = "rows") -> List[Any]:
    return [row[name] for row in result[rows]]


def between(series, lo: float, hi: float) -> List[float]:
    return [v for t, v in series if lo <= t < hi]


def spread(result: Any, sub: str, scheme: str) -> float:
    """Fig 7: max - min class f-Util of one scheme in one sub-figure."""
    values = [r["f_util"] for r in result["rows"] if r["sub"] == sub and r["scheme"] == scheme]
    return max(values) - min(values)


def fig09(result: Any) -> Dict[str, List[float]]:
    """Fig 9's write-cost and write-latency samples, early vs consolidated."""
    p, cost = result["phase_us"], result["write_cost_series"]
    latency = dict(result["latency_series"]["write"]).items()
    return {
        "early": between(cost, p, 3 * p),
        "mid": between(cost, 6 * p, 10 * p),
        "early_lat": between(latency, p, 3 * p),
        "late_lat": between(latency, 6 * p, 10 * p),
    }


def fig10_gain(result: Any, workload: str, baseline: str) -> float:
    kops = {(r["workload"], r["scheme"]): r["kops"] for r in result["rows"]}
    return kops[workload, "gimbal"] / max(kops[workload, baseline], 1e-9)


def fig17_mean(series, lo: float, hi: float) -> float:
    values = between(series, lo, hi)
    return sum(values) / len(values)


ABL, QLC, F2, F3 = table("case", "variant"), table("scheme"), table("host", "op", "size_kb"), table("host", "op", "cores")
F4, F6, F7, F8 = table("neighbour"), table("case", "scheme"), table("sub", "scheme", "class"), table("case", "scheme", "op")
F10, F11, F13 = table("workload", "scheme"), table("workload", "instances"), table("workload", "variant")
F14, F15, F16 = table("condition", "read_ratio"), table("scenario", "size_kb"), table("case", "added_cost_us")
RACK, S58, T2 = table("scheme"), table("condition"), table("scheme")
NIC, SRV = ("smartnic", "rnd-read"), ("server", "rnd-read")
BASELINES, KV = ("reflex", "parda", "flashfq"), ("A", "B", "C", "F")
FIG07_08 = {"measure_us": 900_000.0, "warmup_us": 500_000.0, "workers_per_class": 16}

CLAIMS: List[Claim] = [
    *figure("ablations", {"measure_us": 600_000.0, "warmup_us": 300_000.0, "workers": 8},
        Claim("ablations.noslots-large-class-grabs",
              pick(ABL, ("sizes-clean", "no-slots", "by_group_mbps", "128KB"), ("sizes-clean", "full", "by_group_mbps", "128KB")),
              lambda noslots, full: noslots > 2.0 * full,
              "without virtual slots the 128 KiB class grabs several times its share",
              "mixed sizes: without the slot bound the large class dominates"),
        Claim("ablations.slots-equal-shares",
              pick(ABL, ("sizes-clean", "full", "by_group_mbps", "128KB"), ("sizes-clean", "full", "by_group_mbps", "4KB")),
              lambda large, small: abs(large / 2 - small / 8) < 0.3 * (small / 8),
              "with virtual slots the per-worker class shares are near-equal",
              "2 large vs 8 small workers; per-worker shares within 30 %"),
        Claim("ablations.noslots-tail",
              pick(ABL, ("rw-clean", "no-slots", "p99_us"), ("rw-clean", "full", "p99_us")),
              lambda noslots, full: noslots > 1.5 * full,
              "without the outstanding-IO bound the clean R/W p99 multiplies"),
        Claim("ablations.noslots-writes-collapse",
              pick(ABL, ("rw-clean", "no-slots", "by_group_mbps", "write"), ("rw-clean", "full", "by_group_mbps", "write")),
              lambda noslots, full: noslots < 0.8 * full,
              "without the outstanding-IO bound the clean write class collapses"),
        Claim("ablations.every-variant-moves-data", lambda r: (column(r, "total_mbps"),),
              lambda totals: all(total > 50.0 for total in totals),
              "every ablation degrades, none breaks", "each variant above 50 MB/s"),
    ),
    *figure("ext-qlc", {"measure_us": 600_000.0, "warmup_us": 300_000.0, "workers_per_class": 8},
        Claim("ext-qlc.read-share-restored", pick(QLC, ("gimbal", "read_mbps"), ("vanilla", "read_mbps")),
              lambda gimbal, vanilla: gimbal > 1.15 * vanilla,
              "Gimbal restores the read share QLC's heavier GC takes under vanilla"),
        Claim("ext-qlc.read-latency-below-flashfq", pick(QLC, ("gimbal", "read_avg_us"), ("flashfq", "read_avg_us")),
              lambda gimbal, flashfq: gimbal < flashfq,
              "Gimbal keeps average read latency below the work-conserving schemes"),
        Claim("ext-qlc.writers-progress", pick(QLC, ("gimbal", "write_mbps")), lambda write: write > 20.0,
              "writers still make progress on QLC (no starvation)"),
    ),
    *figure("fig02", {"measure_us": 150_000.0},
        Claim("fig02.latency-grows-with-size", pick(F2, (*NIC, 256, "avg_latency_us"), (*NIC, 4, "avg_latency_us")),
              lambda large, small: large > small, "latency grows with IO size on both hosts", quick=True),
        Claim("fig02.small-io-penalty-small", pick(F2, (*NIC, 4, "avg_latency_us"), (*SRV, 4, "avg_latency_us")),
              lambda nic, server: nic / server < 1.10,
              "the SmartNIC latency penalty is small for 4 KiB reads", quick=True),
        Claim("fig02.penalty-grows-with-size",
              pick(F2, (*NIC, 256, "avg_latency_us"), (*SRV, 256, "avg_latency_us"),
                   (*NIC, 4, "avg_latency_us"), (*SRV, 4, "avg_latency_us")),
              lambda nic256, server256, nic4, server4: nic256 / server256 > nic4 / server4,
              "the SmartNIC penalty grows for large IOs (~20 % at 128/256 KiB)",
              "only the direction is gated: the per-byte ARM cost is pinned by the NULL-IOPS anchor",
              deviation=1, quick=True),
    ),
    *figure("fig03", {"measure_us": 200_000.0, "core_counts": (1, 2, 3, 4)},
        Claim("fig03.server-saturates-at-2-cores", pick(F3, (*SRV, 2, "kiops"), (*SRV, 4, "kiops")),
              lambda two, four: two > 0.95 * four, "the server saturates 4 KiB reads with ~2 cores"),
        Claim("fig03.nic-one-core-short", pick(F3, (*NIC, 1, "kiops"), (*NIC, 4, "kiops")),
              lambda one, four: one < 0.6 * four, "one wimpy SmartNIC core is far from the storage limit"),
        Claim("fig03.nic-needs-3-cores", pick(F3, (*NIC, 3, "kiops"), (*NIC, 4, "kiops")),
              lambda three, four: three > 0.75 * four, "the SmartNIC needs ~3 wimpy cores for the same load"),
        Claim("fig03.both-reach-storage-limit", pick(F3, (*NIC, 4, "kiops"), (*SRV, 4, "kiops")),
              lambda nic, server: nic > 0.85 * server, "with enough cores both hosts reach the storage limit"),
    ),
    *figure("fig04", {"measure_us": 400_000.0},
        Claim("fig04.intensity-wins", pick(F4, ("4KB-RD-QD128", "neighbour_mbps"), ("4KB-RD-QD128", "victim_mbps")),
              lambda neighbour, victim: neighbour > 1.5 * victim,
              "higher intensity wins: a QD128 neighbour takes much more than the QD32 victim", quick=True),
        Claim("fig04.deeper-large-neighbour-gains",
              pick(F4, ("128KB-RD-QD8", "neighbour_mbps"), ("128KB-RD-QD1", "neighbour_mbps")),
              lambda qd8, qd1: qd8 > qd1, "a deeper 128 KiB neighbour flips from loser to winner", quick=True),
        Claim("fig04.shallow-large-neighbour-loses",
              pick(F4, ("128KB-RD-QD1", "neighbour_mbps"), ("128KB-RD-QD1", "victim_mbps")),
              lambda neighbour, victim: neighbour < victim, "a QD1 128 KiB neighbour loses to the victim", quick=True),
        Claim("fig04.write-neighbour-hurts", pick(F4, ("4KB-WR-QD32", "victim_mbps"), ("4KB-RD-QD32", "victim_mbps")),
              lambda victim, baseline: victim < 0.8 * baseline,
              "a write neighbour costs the victim a large share of its read baseline",
              "scaled capacity: clean devices drift toward fragmented within the run", deviation=5, quick=True),
    ),
    *figure("fig06", {"measure_us": 700_000.0, "warmup_us": 400_000.0, "num_workers": 16},
        Claim("fig06.reflex-collapses-clean-writes", pick(F6, ("C-W", "gimbal", "aggregate_mbps"), ("C-W", "reflex", "aggregate_mbps")),
              lambda gimbal, reflex: gimbal > 3.0 * reflex,
              "ReFlex's static write model collapses clean-SSD writes (x6.6 vs Gimbal)"),
        Claim("fig06.gimbal-tracks-flashfq-reads", pick(F6, ("F-R", "gimbal", "aggregate_mbps"), ("F-R", "flashfq", "aggregate_mbps")),
              lambda gimbal, flashfq: gimbal > 0.6 * flashfq,
              "Gimbal tracks FlashFQ's bandwidth on fragmented reads (both near device max)"),
        Claim("fig06.flow-control-cuts-write-latency",
              pick(F6, ("F-W", "gimbal", "avg_latency_us"), ("F-W", "flashfq", "avg_latency_us")),
              lambda gimbal, flashfq: gimbal < 0.7 * flashfq,
              "flow control keeps fragmented-write latency far below uncontrolled schemes"),
    ),
    *figure("fig07", FIG07_08,
        Claim("fig07a.spread-vs-flashfq", lambda r: (spread(r, "a", "gimbal"), spread(r, "a", "flashfq")),
              lambda gimbal, flashfq: gimbal < 0.5 * flashfq,
              "mixed sizes: x8.7 less f-Util deviation than FlashFQ",
              "no per-IO cost normalisation: the 128 KiB class grabs several times its share"),
        Claim("fig07a.spread-vs-parda", lambda r: (spread(r, "a", "gimbal"), spread(r, "a", "parda")),
              lambda gimbal, parda: gimbal < 0.7 * parda, "mixed sizes: x6.4 less f-Util deviation than Parda"),
        Claim("fig07a.flashfq-large-class-grabs", pick(F7, ("a", "flashfq", "128KB", "f_util")),
              lambda futil: futil > 2.0, "under FlashFQ the 128 KiB class grabs several times its share"),
        Claim("fig07a.gimbal-large-class-fair", pick(F7, ("a", "gimbal", "128KB", "f_util")),
              lambda futil: abs(futil - 1.0) < 0.6, "Gimbal's 128 KiB class f-Util sits close to 1"),
        Claim("fig07c.spread-vs-parda", lambda r: (spread(r, "c", "gimbal"), spread(r, "c", "parda")),
              lambda gimbal, parda: gimbal < parda, "fragmented R/W: x330 better deviation than Parda"),
        Claim("fig07c.parda-starves-reads", pick(F7, ("c", "parda", "read", "f_util"), ("c", "gimbal", "read", "f_util")),
              lambda parda, gimbal: parda < 0.25 * gimbal, "Parda's reads starve on the fragmented mix"),
        Claim("fig07b.reflex-write-collapses", pick(F7, ("b", "reflex", "write", "f_util"), ("b", "gimbal", "write", "f_util")),
              lambda reflex, gimbal: reflex < 0.5 * gimbal, "clean R/W: ReFlex's write f-Util collapses versus Gimbal's"),
    ),
    *figure("fig08", FIG07_08,
        Claim("fig08.clean-read-tail", pick(F8, ("clean-128KB", "gimbal", "read", "p99_us"), ("clean-128KB", "flashfq", "read", "p99_us")),
              lambda gimbal, flashfq: gimbal < 0.5 * flashfq,
              "clean mix: Gimbal's read tail is far below the uncontrolled schemes",
              "credits bound outstanding IO"),
        Claim("fig08.reflex-write-tail", pick(F8, ("clean-128KB", "reflex", "write", "p999_us"), ("clean-128KB", "gimbal", "write", "p999_us")),
              lambda reflex, gimbal: reflex > 3.0 * gimbal,
              "ReFlex's unthrottled clean writes see tails an order of magnitude above Gimbal's"),
        Claim("fig08.frag-read-avg", pick(F8, ("frag-4KB", "gimbal", "read", "avg_us"), ("frag-4KB", "flashfq", "read", "avg_us")),
              lambda gimbal, flashfq: gimbal < 0.6 * flashfq,
              "fragmented mix: Gimbal cuts average read latency well below FlashFQ"),
        Claim("fig08.frag-write-p99", pick(F8, ("frag-4KB", "gimbal", "write", "p99_us"), ("frag-4KB", "flashfq", "write", "p99_us")),
              lambda gimbal, flashfq: gimbal < 0.8 * flashfq,
              "fragmented mix: Gimbal cuts write p99 below FlashFQ"),
        Claim("fig08.above-parda-writes", pick(F8, ("frag-4KB", "parda", "write", "avg_us"), ("frag-4KB", "gimbal", "write", "avg_us")),
              lambda parda, gimbal: parda < gimbal < 9.0 * parda,
              "Gimbal's write latency sits above Parda's (x3.4)",
              "Parda's low write latency comes from starving reads"),
    ),
    *figure("fig09", {"phase_us": 400_000.0},
        Claim("fig09.single-writer-samples", lambda r: (len(fig09(r)["early"]),), lambda n: n > 0,
              "write-cost samples exist in the single-writer phase"),
        Claim("fig09.cost-decays", lambda r: (min(fig09(r)["early"]),), lambda low: low < 6.0,
              "a rate-capped single writer: the buffer absorbs writes, the cost decays"),
        Claim("fig09.consolidated-samples", lambda r: (len(fig09(r)["mid"]),), lambda n: n > 0,
              "write-cost samples exist in the consolidated phase"),
        Claim("fig09.cost-climbs", lambda r: (max(fig09(r)["mid"]),), lambda high: high > 7.0,
              "under full write consolidation the cost climbs back toward worst case"),
        Claim("fig09.latency-samples", lambda r: (len(fig09(r)["early_lat"]), len(fig09(r)["late_lat"])),
              lambda early, late: early > 0 and late > 0, "write-latency samples exist in both phases"),
        Claim("fig09.write-latency-rises", lambda r: (max(fig09(r)["late_lat"]), min(fig09(r)["early_lat"])),
              lambda late, early: late > 3.0 * early,
              "write latency rises by an order of magnitude into the consolidated phase"),
    ),
    *figure("fig10", {"schemes": ("gimbal", *BASELINES), "workloads": KV, "instances": 6,
                      "measure_us": 500_000.0, "warmup_us": 250_000.0},
        Claim("fig10.update-heavy-gain", lambda r: (fig10_gain(r, "A", "reflex"), fig10_gain(r, "A", "parda")),
              lambda reflex, parda: max(reflex, parda) > 1.15,
              "Gimbal improves update-heavy YCSB substantially (avg x1.7 vs ReFlex)"),
        Claim("fig10.read-only-gains-least",
              lambda r: (max(fig10_gain(r, "A", b) for b in BASELINES), max(fig10_gain(r, "C", b) for b in BASELINES)),
              lambda update, read_only: update > 0.8 * read_only,
              "the read-only workload benefits least", "A gains at least comparably to C"),
        Claim("fig10.never-collapses",
              lambda r: ([F10(r)[w, "gimbal", "kops"] for w in KV],
                         [max(F10(r)[w, s, "kops"] for s in ("gimbal", *BASELINES)) for w in KV]),
              lambda gimbal, best: all(g > 0.6 * b for g, b in zip(gimbal, best)),
              "Gimbal never collapses: within 40 % of the best scheme on every workload"),
    ),
    *figure("fig11-12", {"workloads": ("A", "C"), "instance_counts": (1, 2, 4, 6),
                         "measure_us": 500_000.0, "warmup_us": 250_000.0},
        Claim("fig11.a-scales", pick(F11, ("A", 4, "kops"), ("A", 1, "kops")), lambda four, one: four > 1.5 * one,
              "throughput grows with the number of instances before saturation"),
        Claim("fig11.c-scales", pick(F11, ("C", 6, "kops"), ("C", 1, "kops")), lambda six, one: six > one,
              "read-only throughput grows with the number of instances"),
        Claim("fig12.a-read-latency-rises", pick(F11, ("A", 6, "read_avg_us"), ("A", 1, "read_avg_us")),
              lambda six, one: six > one, "consolidation raises read latency for update-heavy YCSB"),
    ),
    *figure("fig13", {"workloads": ("A", "B", "F"), "instances": 6, "measure_us": 500_000.0, "warmup_us": 250_000.0},
        Claim("fig13.fc-cuts-a-tail", pick(F13, ("A", "+FC", "read_p999_us"), ("A", "vanilla", "read_p999_us")),
              lambda fc, vanilla: fc < vanilla,
              "the credit rate limiter (+FC) cuts the p99.9 read tail (-28.2 % over all mixes)",
              "gated on update-heavy A only, where limiting the write flood protects reads", deviation=6),
        Claim("fig13.lb-keeps-a-tail", pick(F13, ("A", "+FC+LB", "read_p999_us"), ("A", "+FC", "read_p999_us")),
              lambda lb, fc: lb < 1.25 * fc, "the load balancer does not regress the update-heavy tail"),
        Claim("fig13.fc-keeps-throughput",
              lambda r: ([F13(r)[w, "+FC", "kops"] for w in ("A", "B", "F")], [F13(r)[w, "vanilla", "kops"] for w in ("A", "B", "F")]),
              lambda fc, vanilla: all(f > 0.7 * v for f, v in zip(fc, vanilla)),
              "throughput stays comparable across the variants"),
    ),
    *figure("fig14", {"duration_us": 300_000.0},
        Claim("fig14.fragmented-writes-short", pick(F14, ("fragmented", 0.0, "write_mbps"), ("clean", 0.0, "write_mbps")),
              lambda fragmented, clean: fragmented < 0.9 * clean,
              "the fragmented write-only end reaches a fraction of the clean one (~17 %)",
              "scaled capacity: clean devices fragment within the run", deviation=5, quick=True),
        Claim("fig14.few-writes-cost-much", pick(F14, ("fragmented", 0.9, "kiops"), ("fragmented", 1.0, "kiops")),
              lambda with_writes, read_only: with_writes < 0.85 * read_only,
              "5 % writes cost a fragmented read stream 42.6 % of its IOPS",
              "our GC yields to reads more readily: the cliff is softer", deviation=4, quick=True),
        Claim("fig14.clean-beats-fragmented",
              lambda r: tuple([F14(r)[c, ratio, "kiops"] for ratio in (0.2, 0.4, 0.5, 0.6, 0.8)] for c in ("clean", "fragmented")),
              lambda clean, fragmented: all(c >= f for c, f in zip(clean, fragmented)),
              "the clean device outperforms the fragmented one at every mixed ratio", quick=True),
    ),
    *figure("fig15", {"duration_us": 200_000.0},
        Claim("fig15.perturbations-inflate",
              lambda r: ([F15(r)[s, 128, "avg_latency_us"] for s in ("70/30-rw", "qd8")], F15(r)["vanilla", 128, "avg_latency_us"]),
              lambda perturbed, vanilla: all(p > vanilla for p in perturbed),
              "every perturbation inflates large-IO latency versus vanilla"),
        Claim("fig15.latency-grows-with-size",
              lambda r: tuple([F15(r)[s, kb, "avg_latency_us"] for s in ("vanilla", "fragmented", "70/30-rw", "qd8")] for kb in (256, 4)),
              lambda large, small: all(a > b for a, b in zip(large, small)),
              "latency grows with IO size in every scenario"),
        Claim("fig15.qd8-doubles", pick(F15, ("qd8", 256, "avg_latency_us"), ("vanilla", 256, "avg_latency_us")),
              lambda qd8, vanilla: qd8 > 1.5 * vanilla, "QD8 self-load roughly doubles large-IO latency"),
    ),
    *figure("fig16", {"measure_us": 200_000.0, "added_costs": (0.0, 1.0, 5.0, 20.0, 80.0, 320.0)},
        Claim("fig16.small-ios-collapse-first",
              pick(F16, ("4KB-read", 20.0, "gbps"), ("4KB-read", 0.0, "gbps"), ("128KB-read", 20.0, "gbps"), ("128KB-read", 0.0, "gbps")),
              lambda small20, small0, large20, large0: small20 / small0 < large20 / large0,
              "4 KiB traffic collapses long before 128 KiB traffic as per-IO cost grows"),
        Claim("fig16.large-processing-bound", pick(F16, ("128KB-read", 320.0, "gbps"), ("128KB-read", 0.0, "gbps")),
              lambda slow, base: slow < 0.6 * base, "at +320 us 128 KiB reads are processing-bound"),
        Claim("fig16.small-processing-bound", pick(F16, ("4KB-read", 320.0, "gbps"), ("4KB-read", 0.0, "gbps")),
              lambda slow, base: slow < 0.1 * base, "at +320 us 4 KiB reads are processing-bound"),
        Claim("fig16.one-us-barely-moves-large", pick(F16, ("128KB-read", 1.0, "gbps"), ("128KB-read", 0.0, "gbps")),
              lambda slow, base: slow > 0.9 * base, "1 us of added cost barely moves 128 KiB traffic"),
    ),
    *figure("fig17", {"phase_us": 300_000.0, "steps": 5},
        Claim("fig17.series-present", lambda r: (len(r["latency_4k"]), len(r["bandwidth_mbps"])),
              lambda latency, bandwidth: latency > 0 and bandwidth > 0, "latency and bandwidth series exist"),
        Claim("fig17.latency-impulse", lambda r: (max(v for _, v in r["latency_4k"][-5:]), r["latency_4k"][1][1]),
              lambda late, early: late > 3.0 * early, "overloaded latency is several times the unloaded start"),
        Claim("fig17.bandwidth-saturates",
              lambda r: (fig17_mean(r["bandwidth_mbps"], 4 * 300_000.0, 5 * 300_000.0),
                         fig17_mean(r["bandwidth_mbps"], 3 * 300_000.0, 4 * 300_000.0)),
              lambda last, second_last: last < 1.3 * second_last,
              "bandwidth saturates: the last phase adds load but little throughput"),
    ),
    *figure("fig18", {"phase_us": 200_000.0, "steps": 12},
        Claim("fig18.series-present", lambda r: (len(r["threshold"]), len(r["ewma_latency"])),
              lambda thresholds, ewmas: thresholds > 0 and ewmas > 0, "threshold and EWMA series exist"),
        Claim("fig18.threshold-moves", lambda r: (max(v for _, v in r["threshold"]), min(v for _, v in r["threshold"])),
              lambda high, low: high > 1.2 * low, "the latency threshold is dynamic"),
        Claim("fig18.signals-fire", lambda r: (r["signals"]["CONGESTED"], r["signals"]["OVERLOADED"]),
              lambda congested, overloaded: congested + overloaded > 0, "congestion signals fire as load rises"),
        Claim("fig18.ewma-grows",
              lambda r: (sum(v for _, v in r["ewma_latency"][-5:]) / 5, sum(v for _, v in r["ewma_latency"][:5]) / 5),
              lambda late, early: late > early, "the latency EWMA grows with offered load"),
    ),
    *figure("fig19-23", {"measure_us": 250_000.0},
        Claim("fig19.intense-stream-wins", lambda r: (column(r, "intense_mbps", "fig19"), column(r, "mild_mbps", "fig19")),
              lambda intense, mild: all(i > m for i, m in zip(intense, mild)),
              "the double-QD stream takes more bandwidth at every size"),
        Claim("fig20.large-neighbour-dominates", pick(table("neighbour_kb", name="fig20"), (64, "stream2_mbps"), (64, "stream1_mbps")),
              lambda large, small: large > 3.0 * small, "large neighbours dominate the 4 KiB stream"),
        Claim("fig21.writes-cost-reads", lambda r: (column(r, "mixed_mbps", "fig21"), column(r, "standalone_mbps", "fig21")),
              lambda mixed, alone: all(m < 0.8 * a for m, a in zip(mixed, alone)),
              "mixing with writes costs reads a large share"),
        Claim("fig22.background-inflates-latency",
              lambda r: ([x for x in r["fig22_23"] if x["fig"] == "22"][-1]["avg_us"],
                         [x for x in r["fig22_23"] if x["fig"] == "22"][0]["avg_us"]),
              lambda loaded, baseline: loaded > 1.5 * baseline, "background traffic inflates probe latency"),
    ),
    *figure("rack", {"schemes": ("gimbal", "vanilla"), "rack": (2,), "ssds_per_jbof": 2, "tenants": 48, "horizon_us": 400_000.0},
        Claim("rack.schedule-completes", lambda r: (column(r, "tenants_run"),), lambda runs: all(n == 48 for n in runs),
              "the full churn schedule executes on both racks"),
        Claim("rack.no-leaked-megas", lambda r: (column(r, "megas_leaked"),), lambda leaked: all(n == 0 for n in leaked),
              "every mega blob a departing tenant held returns to the allocator", quick=True),
        Claim("rack.megas-allocated", lambda r: (column(r, "megas_allocated"),), lambda megas: all(n > 0 for n in megas),
              "tenants allocate mega blobs", quick=True),
        Claim("rack.churn-not-static", lambda r: (column(r, "peak_tenants"),), lambda peaks: all(n < 48 for n in peaks),
              "churn, not a static fleet: the peak stays below the schedule", quick=True),
        Claim("rack.jain-in-range", lambda r: (column(r, "jain"),), lambda jains: all(0.0 < j <= 1.0 for j in jains),
              "per-tenant Jain index is a valid fairness index", quick=True),
        Claim("rack.vanilla-pushes-more", pick(RACK, ("vanilla", "total_kops"), ("gimbal", "total_kops")),
              lambda vanilla, gimbal: vanilla > gimbal,
              "credit flow control throttles submission; the unmanaged rack pushes more ops",
              "heterogeneous churn: no cross-scheme fairness ratio is gated here", quick=True),
        Claim("rack.shadow-reads", pick(RACK, ("gimbal", "reads_to_shadow")), lambda shadow: shadow > 0,
              "load-balanced reads reach the shadow replicas", quick=True),
    ),
    *figure("sec5.8", {"measure_us": 800_000.0, "warmup_us": 400_000.0, "workers_per_class": 8},
        Claim("sec5.8.read-futil-band", pick(S58, ("clean", "read_futil"), ("fragmented", "read_futil")),
              lambda *futils: all(0.15 < f < 3.0 for f in futils),
              "Gimbal adapts to the P3600: f-Utils in a sane band (0.58-0.90)", quick=True),
        Claim("sec5.8.write-futil-band", pick(S58, ("clean", "write_futil"), ("fragmented", "write_futil")),
              lambda *futils: all(0.15 < f < 3.0 for f in futils),
              "Gimbal adapts to the P3600: f-Utils in a sane band (0.58-0.90)", quick=True),
        Claim("sec5.8.reads-not-starved", pick(S58, ("clean", "read_mbps"), ("fragmented", "read_mbps")),
              lambda *mbps: all(m > 25.0 for m in mbps), "neither class is starved outright", quick=True),
        Claim("sec5.8.writes-not-starved", pick(S58, ("clean", "write_mbps"), ("fragmented", "write_mbps")),
              lambda *mbps: all(m > 25.0 for m in mbps), "neither class is starved outright", quick=True),
    ),
    *figure("table1", {"measure_us": 150_000.0},
        Claim("table1.adds-cycles", lambda r: (column(r, "gimbal_cycles", "cycles"), column(r, "vanilla_cycles", "cycles")),
              lambda gimbal, vanilla: all(g > v for g, v in zip(gimbal, vanilla)),
              "Gimbal adds scheduler cycles on both paths", quick=True),
        Claim("table1.overhead-pct", lambda r: (column(r, "overhead_pct", "cycles"),),
              lambda pcts: all(3.0 < p < 120.0 for p in pcts), "+37.5-62.5 % cycles",
              "against the full path cost, so below the scheduler-only percentage", quick=True),
        Claim("table1.added-cycles", lambda r: (column(r, "gimbal_cycles", "cycles"), column(r, "vanilla_cycles", "cycles")),
              lambda gimbal, vanilla: all(2.0 < g - v < 60.0 for g, v in zip(gimbal, vanilla)),
              "+20 cycles on submit, +6-8 on complete (125 cycles/us)", quick=True),
        Claim("table1.null-loss-modest", lambda r: (column(r, "loss_pct", "null_iops"),),
              lambda losses: all(-5.0 <= loss < 30.0 for loss in losses), "NULL-device IOPS loss is modest (9-12 %)",
              "the 4-core case may hit the 100 Gbps wire limit first, where both schemes tie", quick=True),
        Claim("table1.null-loss-one-core", lambda r: (r["null_iops"][0]["loss_pct"],), lambda loss: loss > 0.0,
              "one core loses NULL-device IOPS to Gimbal", quick=True),
        Claim("table1.one-core-kiops", lambda r: (r["null_iops"][0]["vanilla_kiops"],), lambda kiops: 600.0 < kiops < 1200.0,
              "one vanilla core drives ~937 KIOPS against the NULL backend", quick=True),
        Claim("table1.four-cores-scale", lambda r: (r["null_iops"][1]["gimbal_kiops"], r["null_iops"][0]["gimbal_kiops"]),
              lambda four, one: four > 2.0 * one, "four cores scale NULL-device throughput", quick=True),
    ),
    *figure("table2", {},
        Claim("table2.gimbal-bw-dynamic", pick(T2, ("gimbal", "bw_estimation")), lambda v: v == "Dynamic",
              "Gimbal estimates bandwidth dynamically", quick=True),
        Claim("table2.gimbal-cost-dynamic", pick(T2, ("gimbal", "io_cost")), lambda v: v == "Dynamic",
              "Gimbal's IO cost is dynamic", quick=True),
        Claim("table2.gimbal-flow-control", pick(T2, ("gimbal", "flow_control")), lambda v: v == "yes",
              "Gimbal has flow control", quick=True),
        Claim("table2.reflex-bw-static", pick(T2, ("reflex", "bw_estimation")), lambda v: v == "Static",
              "ReFlex estimates bandwidth statically", quick=True),
        Claim("table2.parda-queues-at-client", pick(T2, ("parda", "fair_queueing")), lambda v: v == "@Client",
              "Parda fair-queues at the client", quick=True),
        Claim("table2.flashfq-no-flow-control", pick(T2, ("flashfq", "flow_control")), lambda v: v == "no",
              "FlashFQ has no flow control", quick=True),
        Claim("table2.code-cross-checks", lambda r: (r["checks"],), lambda checks: all(checks.values()),
              "the matrix agrees with the implementations", quick=True),
    ),
]


def evaluate(claims: List[Claim], results: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One record row per claim, over JSON-shaped ``results``, returned as
    it reads back from ``claims.json`` so a fresh render equals the test's."""
    rows = []
    for claim in claims:
        try:
            values = list(claim.extract(results[claim.figure]))
            holds = bool(claim.holds(*values))
        except (LookupError, ArithmeticError, TypeError, ValueError) as error:
            values, holds = [f"{type(error).__name__}: {error}"], False
        rows.append({
            "id": claim.id, "figure": claim.figure, "paper": claim.paper, "window": claim.window,
            "values": values, "holds": holds, "deviation": claim.deviation,
        })
    return json.loads(json.dumps(rows))


def _fmt(value: Any) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items())
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def render(record: Mapping[str, Any]) -> str:
    """The EXPERIMENTS.md status table for a ``claims.json`` record."""
    rows = record["claims"]
    lines = [
        f"{sum(row['holds'] for row in rows)} of {len(rows)} claims hold at `{record['git']}`.",
        "",
        "| claim | paper | measured | holds |",
        "|---|---|---|---|",
    ]
    for row in rows:
        status = "yes" if row["holds"] else "**no**"
        if row["deviation"] is not None:
            status += f" (deviation {row['deviation']})"
        lines.append(f"| `{row['id']}` | {row['paper']} | {', '.join(map(_fmt, row['values']))} | {status} |")
    return "\n".join(lines) + "\n"


def splice(doc: str, table_text: str) -> str:
    """``doc`` with ``table_text`` between the claims markers."""
    head, rest = doc.split(BEGIN, 1)
    return f"{head}{BEGIN}\n{table_text}{END}{rest.split(END, 1)[1]}"


def _git() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "--short=12", "HEAD") + ("-dirty" if dirty else "")


def _report(rows: List[Dict[str, Any]]) -> int:
    for row in rows:
        if not row["holds"]:
            print(f"FAIL {row['id']}: {row['paper']}; measured {', '.join(map(_fmt, row['values']))}")
    print(f"{sum(row['holds'] for row in rows)} of {len(rows)} claims hold")
    return 0 if all(row["holds"] for row in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Check the paper's shape claims.")
    parser.add_argument("--quick", metavar="SUITE_JSON",
                        help="check the quick rows against `repro suite --quick --json` output; write nothing")
    args = parser.parse_args(argv)
    if args.quick:
        results = json.loads(Path(args.quick).read_text(encoding="utf-8"))["results"]
        quick = [claim for claim in CLAIMS if claim.quick]
        missing = sorted({claim.figure for claim in quick} - set(results))
        if missing:
            print(f"{args.quick} lacks the quick rows' figures: {', '.join(missing)}", file=sys.stderr)
            return 2
        return _report(evaluate(quick, results))

    from repro.harness.cache import ResultCache, cache_dir
    from repro.harness.orchestrator import ExperimentSpec, run_suite

    windows = {claim.figure: claim.window for claim in CLAIMS}
    specs = [ExperimentSpec(name, EXPERIMENTS[name][0], dict(window)) for name, window in windows.items()]
    suite = run_suite(specs, cache=ResultCache(cache_dir()))  # every core
    rows = evaluate(CLAIMS, json.loads(json.dumps(suite.results)))
    record = {"git": _git(), "claims": rows}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    DOC.write_text(splice(DOC.read_text(encoding="utf-8"), render(record)), encoding="utf-8")
    return _report(rows)


if __name__ == "__main__":
    sys.exit(main())
