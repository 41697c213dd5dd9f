"""Per-circuit experiment pipeline (the paper's section 4 setup).

For every circuit: technology-independent optimization, minimum-delay
mapping, measurement of the minimum delay, relaxation of the constraint
by 20% (``slack_factor = 1.2``), an area-recovery remap under the
relaxed constraint, and finally the scaling algorithms -- each on its
own copy of the mapped netlist, sharing one switching-activity
measurement, exactly as the paper compares them.

The pipeline itself lives in :mod:`repro.api.flow` now; this module is
the suite-level convenience layer (:func:`run_prepared`,
:func:`run_circuit`, :func:`run_suite`).
"""

from __future__ import annotations

from repro.api.artifact import CircuitResult, artifacts_to_results
from repro.api.config import DEFAULT_SLACK_FACTOR, FlowConfig
from repro.api.flow import Flow, PreparedCircuit
from repro.api.registry import BUILTIN_METHODS as METHODS
from repro.core.state import ScalingOptions
from repro.library.cells import Library
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.netlist.network import Network

__all__ = [
    "DEFAULT_SLACK_FACTOR",
    "PreparedCircuit",
    "CircuitResult",
    "run_prepared",
    "run_circuit",
    "run_suite",
]


def _make_flow(source: str | Network, library: Library,
               slack_factor: float,
               match_table: MatchTable | None,
               options: ScalingOptions | None,
               max_iter: int = 10,
               area_budget: float = 0.10) -> tuple[Flow, Network | None]:
    """A Flow for ``source`` plus the explicit network to feed it, if any."""
    config = FlowConfig(
        circuit=source if isinstance(source, str) else "",
        slack_factor=slack_factor,
        max_iter=max_iter,
        area_budget=area_budget,
        options=options or ScalingOptions(),
    )
    flow = Flow(config, library=library, match_table=match_table)
    return flow, (source if isinstance(source, Network) else None)


def _run_methods(flow: Flow, prepared: PreparedCircuit,
                 methods: tuple[str, ...]) -> CircuitResult:
    artifacts = [
        flow.replace(method=method).run(prepared=prepared)
        for method in methods
    ]
    results = artifacts_to_results(artifacts)
    if results:
        return results[0]
    return CircuitResult(
        name=prepared.name,
        gates=sum(1 for n in prepared.network.nodes.values()
                  if not n.is_input),
        org_power_uw=0.0,
        min_delay_ns=prepared.min_delay,
        tspec_ns=prepared.tspec,
    )


def run_prepared(prepared: PreparedCircuit, library: Library,
                 methods: tuple[str, ...] = METHODS,
                 options: ScalingOptions | None = None,
                 max_iter: int = 10,
                 area_budget: float = 0.10) -> CircuitResult:
    """Run the scaling algorithms on an already-prepared circuit.

    Callers that cache a :class:`PreparedCircuit` (the campaign
    workers, the benchmark fixtures) pay the optimize/map/constrain
    pipeline once per circuit instead of once per method.
    """
    flow, _ = _make_flow(prepared.name, library, DEFAULT_SLACK_FACTOR,
                         None, options, max_iter=max_iter,
                         area_budget=area_budget)
    return _run_methods(flow, prepared, tuple(methods))


def run_circuit(source: str | Network, library: Library | None = None,
                methods: tuple[str, ...] = METHODS,
                slack_factor: float = DEFAULT_SLACK_FACTOR,
                match_table: MatchTable | None = None,
                options: ScalingOptions | None = None,
                max_iter: int = 10,
                area_budget: float = 0.10) -> CircuitResult:
    """The full paper flow on one circuit; returns one table row."""
    library = library or build_compass_library()
    flow, network = _make_flow(source, library, slack_factor, match_table,
                               options, max_iter=max_iter,
                               area_budget=area_budget)
    prepared = flow.prepare(network)
    return _run_methods(flow, prepared, tuple(methods))


def run_suite(names: list[str], library: Library | None = None,
              methods: tuple[str, ...] = METHODS,
              slack_factor: float = DEFAULT_SLACK_FACTOR,
              options: ScalingOptions | None = None,
              verbose: bool = False) -> list[CircuitResult]:
    """Run the flow over a list of benchmark names."""
    library = library or build_compass_library()
    match_table = MatchTable(library)
    results = []
    for name in names:
        result = run_circuit(
            name, library, methods=methods, slack_factor=slack_factor,
            match_table=match_table, options=options,
        )
        results.append(result)
        if verbose:
            improvements = "  ".join(
                f"{method}={result.improvement(method):5.2f}%"
                for method in methods
            )
            print(f"{result.name:>10}: {result.gates:5d} gates  "
                  f"{improvements}")
    return results
