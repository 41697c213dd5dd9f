"""Gscale: creating new timing slack by separator-guided gate sizing.

The paper's second contribution (section 3).  Gscale keeps the CVS
cluster restriction (no converters inside the logic) but, instead of
stopping when the existing slack is spent, *creates* slack: it finds the
critical-path network (CPN) feeding the time-critical boundary (TCB),
weights every CPN gate by area-penalty-per-unit-of-timing-gain for a
one-step upsize, picks a minimum-weight separator so that every path
into the TCB is sped up exactly once, resizes those gates, and re-runs
CVS to push the TCB toward the primary inputs.  The loop stops after
``max_iter`` consecutive pushes fail to move the TCB (the paper uses
ten) or when the area budget (the paper uses +10%) is exhausted.

Gscale is a move-selection policy over :mod:`repro.core.moves`: every
separator resize is a transactional :class:`ResizeMove` -- the engine
re-times only the mutated cone and a rejected upsize is restored from
the timing journal -- and the CVS follow-ups route their demotions
through the same engine, so the state's move statistics cover the whole
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cvs import CvsResult, run_cvs
from repro.core.moves import MoveEngine, ResizeMove, demotion_deadline
from repro.core.state import ScalingState
from repro.graphalg.separator import min_weight_separator
from repro.timing.incremental import IncrementalTiming

_WEIGHT_SCALE = 1000
_UNRESIZABLE = 10**9
"""Separator weight for gates that cannot (usefully) grow."""

DEFAULT_MAX_ITER = 10
DEFAULT_AREA_BUDGET = 0.10


@dataclass
class GscaleResult:
    """Outcome of a Gscale run."""

    initial_cvs: CvsResult
    iterations: int = 0
    failed_pushes: int = 0
    demoted: list[str] = field(default_factory=list)
    resized: list[str] = field(default_factory=list)
    final_tcb: frozenset[str] = frozenset()


def demotion_shortfall(
    state: ScalingState,
    analysis: IncrementalTiming,
    name: str,
) -> float:
    """How much earlier ``name``'s inputs must arrive to allow demotion.

    Positive for TCB members; their CVS check failed by this margin.
    """
    out_arrival, deadline, _ = demotion_deadline(
        state,
        name,
        state.rail_of(name) + 1,
        analysis.arrival,
        analysis.required[name],
    )
    return out_arrival - deadline


def resize_profile(
    state: ScalingState, name: str
) -> tuple[float, float, float] | None:
    """(area penalty, net timing gain, worst driver penalty) of an upsize.

    Returns ``None`` when no larger variant exists.  The net gain is the
    gate's own stage-delay improvement minus the worst slowdown its
    increased input capacitance inflicts on any one driver (both effects
    land on a shared path in the worst case).
    """
    node = state.network.nodes[name]
    cell = state.cell(name)
    candidate = state.library.next_size_up(cell)
    if candidate is None:
        return None

    calc = state.calc
    load = calc.load(name)
    current = calc.variant(name)
    upsized = calc.rail_variant_of(candidate, state.rail_of(name))
    own_gain = current.max_delay(load) - upsized.max_delay(load)

    driver_penalty = 0.0
    for pin, fanin in enumerate(node.fanins):
        driver = state.network.nodes[fanin]
        if driver.is_input:
            continue  # inputs are ideal drivers in this model
        delta_cap = candidate.input_caps[pin] - cell.input_caps[pin]
        penalty = calc.variant(fanin).drive_res * delta_cap
        driver_penalty = max(driver_penalty, penalty)

    area_penalty = candidate.area - cell.area
    return area_penalty, own_gain - driver_penalty, driver_penalty


def get_cpn(
    state: ScalingState,
    analysis: IncrementalTiming,
    tcb: frozenset[str],
) -> tuple[list[str], list[tuple[str, str]], list[str], list[str]]:
    """The critical-path network feeding the TCB.

    Returns (nodes, edges, sources, sinks): the gates inside the TCB's
    transitive fanin whose slack is within the demotion shortfall window,
    the fanin edges among them, the entry nodes, and the TCB sinks.
    """
    network = state.network
    shortfalls = [
        analysis.slack(t) + demotion_shortfall(state, analysis, t) for t in tcb
    ]
    window = max(shortfalls, default=0.0) + state.options.timing_tolerance

    # Order the fanin cone topologically by cached position instead of
    # filtering the whole network's order: O(|cone| log |cone|), and the
    # resulting sequence is identical to the full-order filter.
    cone = network.transitive_fanin(tcb)
    position = network.topo_index()
    # Slack via the engine's levelized planes: the same
    # required[i] - arrival[i] subtraction analysis.slack performs,
    # without the per-name staleness check and dict chain.
    _, arrival, required, _ = analysis.levelized_arrays()
    is_input = state.flat().is_input
    nodes = []
    for name in sorted(cone, key=position.__getitem__):
        i = position[name]
        if not is_input[i] and required[i] - arrival[i] <= window:
            nodes.append(name)
    node_set = set(nodes)
    edges = [
        (fanin, name)
        for name in nodes
        for fanin in network.nodes[name].fanins
        if fanin in node_set
    ]
    has_cpn_fanin = {v for _, v in edges}
    sources = [name for name in nodes if name not in has_cpn_fanin]
    sinks = [name for name in nodes if name in tcb]
    return nodes, edges, sources, sinks


def run_gscale(
    state: ScalingState,
    max_iter: int = DEFAULT_MAX_ITER,
    area_budget: float = DEFAULT_AREA_BUDGET,
) -> GscaleResult:
    """The full Gscale loop of the paper's section 3 pseudo-code."""
    engine = MoveEngine(state)
    initial = run_cvs(state)
    result = GscaleResult(initial_cvs=initial)
    result.demoted.extend(initial.demoted)
    tcb = initial.tcb
    sizing_budget = state.initial_area * area_budget
    counter = 0

    # No-harm fallback: if sizing ends up costing more power than the
    # plain CVS cluster saved (possible on sizing-hostile circuits; the
    # paper's Gscale column is never below its CVS column), restore this
    # snapshot at the end.
    snapshot_levels = dict(state.levels)
    snapshot_lc_edges = dict.fromkeys(state.lc_edges)
    snapshot_cells = dict(state.cells)
    snapshot_power = state.power().total

    while tcb and state.sizing_area_delta < sizing_budget - 1e-12:
        analysis = state.timing()
        nodes, edges, sources, sinks = get_cpn(state, analysis, tcb)

        weights: dict[str, int] = {}
        profiles: dict[str, tuple[float, float, float]] = {}
        for name in nodes:
            profile = resize_profile(state, name)
            if profile is None or profile[1] <= 0:
                weights[name] = _UNRESIZABLE
                continue
            area_penalty, net_gain, _ = profile
            profiles[name] = profile
            weights[name] = max(
                1, int(round(area_penalty / net_gain * _WEIGHT_SCALE))
            )

        cut: list[str] = []
        if nodes and sources and sinks:
            cut, _ = min_weight_separator(
                nodes, edges, weights, sources, sinks
            )

        # Apply the separator's resizes one by one, each a transactional
        # ResizeMove: an upsize speeds the resized stage but loads its
        # drivers, and on zero-slack logic only the measured circuit can
        # arbitrate that trade.  Only the resized gate's cone is
        # re-timed per attempt, and a rejected upsize is rolled back
        # from the journal instead of re-propagated.
        applied: list[str] = []
        worst_before = analysis.worst_delay
        for name in cut:
            if name not in profiles:
                continue
            cell = state.cell(name)
            bigger = state.library.next_size_up(cell)
            if bigger is None:
                continue
            growth = bigger.area - cell.area
            if state.sizing_area_delta + growth > sizing_budget:
                continue
            if engine.try_move(
                ResizeMove(name, bigger),
                worst_delay_cap=worst_before + 1e-12,
            ):
                worst_before = engine.last_worst_delay
                applied.append(name)
        result.resized.extend(applied)

        follow_up = run_cvs(state)
        result.demoted.extend(follow_up.demoted)
        result.iterations += 1
        new_tcb = follow_up.tcb
        if new_tcb == tcb:
            counter += 1
            result.failed_pushes += 1
        else:
            counter = 0
        # Fixed point: no resize stuck, CVS demoted nothing, TCB is
        # unchanged -- the iteration left the state bit-identical, so
        # every further iteration is provably identical too.  Burning
        # the remaining max_iter retries cannot change the outcome.
        at_fixed_point = (
            not applied and not follow_up.demoted and new_tcb == tcb
        )
        tcb = new_tcb
        if counter > max_iter or at_fixed_point:
            break

    if state.power().total > snapshot_power:
        for name in list(state.levels):
            state.set_rail(name, snapshot_levels.get(name, 0))
        for name, rail in snapshot_levels.items():
            state.set_rail(name, rail)
        for edge in list(state.lc_edges):
            if edge not in snapshot_lc_edges:
                state.drop_converter(edge)
        for edge in snapshot_lc_edges:
            state.add_converter(edge)
        for name in list(state.cells):
            cell = snapshot_cells.get(name, state.network.nodes[name].cell)
            if state.cell(name) is not cell:
                state.resize(name, cell)
        result.demoted = list(initial.demoted)
        result.resized = []
        tcb = initial.tcb

    result.final_tcb = tcb
    state.validate()
    return result


__all__ = [
    "GscaleResult",
    "demotion_shortfall",
    "resize_profile",
    "get_cpn",
    "run_gscale",
]
