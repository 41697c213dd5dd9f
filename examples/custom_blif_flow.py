#!/usr/bin/env python
"""Full flow on a user-provided BLIF netlist, step by step.

Shows every stage a downstream user would drive individually: parse a
BLIF block, optimize it, map it, time it, measure switching activity,
enter the ``repro.api.Flow`` at its ``scale`` stage, verify legality,
and write the dual-Vdd result back out as BLIF plus a rail assignment
-- the artifacts a physical-design flow would consume.  (For the
one-call version of the same pipeline see ``examples/quickstart.py``;
this example deliberately exercises the low-level substrate the Flow
stages are made of.)
"""

import io

from repro import (
    DelayCalculator,
    IncrementalTiming,
    build_compass_library,
    check_network,
    map_network,
    materialize_converters,
    parse_blif,
    random_activities,
    rugged,
    write_blif,
)
from repro.api import Flow, FlowConfig
from repro.mapping.mapper import recover_area, speed_up_sizing
from repro.netlist.validate import networks_equivalent

GCD_CONTROLLER = """
.model gcd_ctl
.inputs go a_gt_b a_eq_b ld0 ld1
.outputs sel_a sel_b en_a en_b done
.names go st
1 1
.names st a_eq_b run
10 1
.names run a_gt_b sel_a
11 1
.names run a_gt_b sel_b
10 1
.names sel_a ld0 en_a
1- 1
-1 1
.names sel_b ld1 en_b
1- 1
-1 1
.names st a_eq_b done
11 1
.end
"""


def main() -> None:
    library = build_compass_library()

    # 1. Parse and sanity-check the incoming block.
    network = parse_blif(GCD_CONTROLLER)
    check_network(network)
    golden = network.copy()
    print(f"parsed:    {network}")

    # 2. Technology-independent optimization (script.rugged stand-in).
    rugged(network)
    print(f"optimized: {network}")

    # 3. Map for minimum delay, then trade the 20% relaxation for area.
    #    Both sizing loops read and repair one timing engine on a
    #    caching delay calculator, as the Flow's constrain stage does.
    mapped = map_network(network, library)
    calc = DelayCalculator(mapped, library, cache=True)
    engine = IncrementalTiming(calc, 0.0)
    min_delay = speed_up_sizing(engine)
    tspec = 1.2 * min_delay
    recover_area(engine, tspec)
    assert networks_equivalent(golden, mapped), "mapping must be exact"
    print(f"mapped:    {mapped}  (Dmin {min_delay:.2f} ns, "
          f"tspec {tspec:.2f} ns)")

    # 4. Measure activity once, then enter the Flow at its scale stage
    #    with the pre-mapped network and the explicit budget.
    activity = random_activities(mapped, n_vectors=1024, seed=42)
    flow = Flow(FlowConfig(method="dscale"), library=library)
    state, artifact = flow.scale(mapped, tspec, activity=activity)
    state.validate()
    report = artifact.report
    print(f"scaled:    {report.improvement_pct:.2f}% power saved, "
          f"{report.n_low}/{report.n_gates} gates low, "
          f"{report.n_converters} converter edges")

    # 5. Export: physical netlist with converters + rail assignment.
    design = materialize_converters(state)
    assert networks_equivalent(golden, design.network)
    blif_text = write_blif(design.network, io.StringIO())
    rails = {
        name: ("4.3V" if design.levels.get(name) else "5.0V")
        for name in design.network.gates()
    }
    print("\nexported BLIF (first lines):")
    for line in blif_text.splitlines()[:6]:
        print(f"  {line}")
    print("\nrail assignment:")
    for name, rail in list(rails.items())[:8]:
        print(f"  {name:>12}: {rail}")
    print(f"  ... {len(rails)} nodes total")


if __name__ == "__main__":
    main()
