"""Regenerate the dual-rail equivalence golden file.

Runs the classic dual-Vdd paper flow (the default ``(5 V, 4.3 V)``
library) on a small MCNC subset and records everything the rail
generalization must keep bit-identical:

* the formatted Table 1 / Table 2 strings over the subset,
* per (circuit, method): power before/after, improvement, worst delay,
  worst slack, converter count, resize count,
* per (circuit, method): the sorted low-node set and converter edge set
  (the full assignment, not just its aggregates).

Floats are stored via ``repr`` (json does the same), so comparisons in
``tests/core/test_rail_equivalence.py`` are bit-exact.  That test
imports :func:`collect`, so the golden and its check share one
collection loop.

The file is generated from the *pre-refactor* seed implementation and
must only ever be regenerated for an intentional, understood change of
the paper reproduction's numbers::

    PYTHONPATH=src python tools/make_dual_rail_golden.py
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from repro.api import BUILTIN_METHODS as METHODS
from repro.api import Flow, FlowConfig
from repro.bench.mcnc import MCNC_NAMES
from repro.flow.experiment import CircuitResult
from repro.flow.tables import format_table1, format_table2
from repro.library.cells import Library
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable

GOLDEN_CIRCUITS = ("z4ml", "x2", "pm1", "i1", "b9", "sct", "f51m")
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "dual_rail_mcnc.json"
)


def collect(
    circuits: tuple[str, ...] = GOLDEN_CIRCUITS,
    library: Library | None = None,
) -> dict:
    """The golden record of ``circuits`` under ``library``.

    ``library`` defaults to the classic dual-Vdd library.
    """
    circuits = tuple(c for c in circuits if c in MCNC_NAMES)
    library = library or build_compass_library()
    flow = Flow(FlowConfig(), library=library, match_table=MatchTable(library))
    results = []
    per_run = {}
    for name in circuits:
        prepared = flow.replace(circuit=name).prepare()
        result = CircuitResult(
            name=prepared.name,
            gates=sum(
                1 for n in prepared.network.nodes.values() if not n.is_input
            ),
            org_power_uw=0.0,
            min_delay_ns=prepared.min_delay,
            tspec_ns=prepared.tspec,
        )
        for method in METHODS:
            state, artifact = flow.replace(method=method).scale(
                prepared.network,
                prepared.tspec,
                activity=prepared.activity,
            )
            # Zero the only volatile field so the formatted tables are
            # reproducible bit for bit across machines and runs.
            report = replace(artifact.report, runtime_s=0.0)
            result.reports[method] = report
            result.org_power_uw = report.power_before_uw
            timing = state.timing()
            per_run[f"{name}:{method}"] = {
                "power_before_uw": report.power_before_uw,
                "power_after_uw": report.power_after_uw,
                "improvement_pct": report.improvement_pct,
                "worst_delay_ns": timing.worst_delay,
                "worst_slack_ns": timing.worst_slack,
                "n_low": report.n_low,
                "n_converters": report.n_converters,
                "n_resized": report.n_resized,
                "area_increase_ratio": report.area_increase_ratio,
                "low_nodes": sorted(state.low_nodes()),
                "lc_edges": sorted(map(list, state.lc_edges)),
            }
        results.append(result)
    return {
        "circuits": list(circuits),
        "table1": format_table1(results),
        "table2": format_table2(results),
        "runs": per_run,
    }


def main() -> None:
    golden = collect()
    path = os.path.abspath(GOLDEN_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(golden['runs'])} runs)")


if __name__ == "__main__":
    main()
