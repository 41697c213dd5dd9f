"""repro: dual-supply-voltage gate-level power optimization.

A from-scratch Python reproduction of

    Chingwei Yeh, Min-Cheng Chang, Shih-Chieh Chang, Wen-Bone Jone,
    "Gate-Level Design Exploiting Dual Supply Voltages for Power-Driven
    Applications", DAC 1999.

The package contains the paper's three algorithms (CVS, Dscale, Gscale)
plus every substrate they need: a logic-network data structure with BLIF
I/O, a synthetic COMPASS-class dual-Vdd cell library, static timing
analysis, switching-activity-based power estimation, technology-
independent optimization, cut-based technology mapping, the flow-based
combinatorial solvers (max-weight antichain, min-weight separator), and
synthetic equivalents of the 39 MCNC benchmark circuits.

Quickstart (the ``repro.api`` front door)::

    from repro.api import Flow, FlowConfig

    flow = Flow(FlowConfig(circuit="C432"))
    prepared = flow.prepare()
    for method in ("cvs", "dscale", "gscale"):
        artifact = flow.replace(method=method).run(prepared=prepared)
        print(method, artifact.report.improvement_pct)

Lower-level use::

    from repro import (Flow, FlowConfig, build_compass_library,
                       load_circuit, map_network, rugged)

    library = build_compass_library()          # (5 V, 4.3 V) dual-Vdd
    network = load_circuit("rot")              # synthetic MCNC benchmark
    rugged(network)                            # optimize
    mapped = map_network(network, library)     # technology-map
    flow = Flow(FlowConfig(method="gscale"), library=library)
    state, artifact = flow.scale(mapped, tspec=12.0)
    print(artifact.report.improvement_pct, state.low_ratio)
"""

from repro.netlist import (
    Network,
    Node,
    TruthTable,
    check_network,
    parse_blif,
    read_blif,
    write_blif,
)
from repro.library import (
    Cell,
    Library,
    WireModel,
    build_compass_library,
    delay_scale,
    energy_scale,
)
from repro.timing import DelayCalculator, IncrementalTiming, TimingAnalysis
from repro.power import (
    Activity,
    PowerBreakdown,
    estimate_power,
    probabilistic_activities,
    random_activities,
)
from repro.opt import rugged
from repro.mapping import MatchTable, map_network, recover_area
from repro.graphalg import max_weight_antichain, min_weight_separator
from repro.core import (
    CvsResult,
    DscaleResult,
    GscaleResult,
    ScalingOptions,
    ScalingState,
    materialize_converters,
    run_cvs,
    run_dscale,
    run_gscale,
)
from repro.api import (
    Flow,
    FlowConfig,
    RunArtifact,
    ScalingMethod,
    ScalingReport,
    register_method,
)
from repro.bench import CIRCUITS, load_circuit
from repro.flow import run_circuit, run_suite

__version__ = "1.1.0"

__all__ = [
    "Network",
    "Node",
    "TruthTable",
    "check_network",
    "parse_blif",
    "read_blif",
    "write_blif",
    "Cell",
    "Library",
    "WireModel",
    "build_compass_library",
    "delay_scale",
    "energy_scale",
    "DelayCalculator",
    "IncrementalTiming",
    "TimingAnalysis",
    "Activity",
    "PowerBreakdown",
    "estimate_power",
    "probabilistic_activities",
    "random_activities",
    "rugged",
    "MatchTable",
    "map_network",
    "recover_area",
    "max_weight_antichain",
    "min_weight_separator",
    "CvsResult",
    "DscaleResult",
    "GscaleResult",
    "ScalingOptions",
    "ScalingReport",
    "ScalingState",
    "materialize_converters",
    "run_cvs",
    "run_dscale",
    "run_gscale",
    "Flow",
    "FlowConfig",
    "RunArtifact",
    "ScalingMethod",
    "register_method",
    "CIRCUITS",
    "load_circuit",
    "run_circuit",
    "run_suite",
    "__version__",
]
