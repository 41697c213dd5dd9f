"""Cut-based delay-oriented covering and timing-constrained area recovery.

``map_network`` reproduces the role of SIS's ``map -n1 -AFG`` with zero
required time: cover the subject graph for minimum estimated arrival.
``recover_area`` then plays the paper's second mapping step: with the
constraint relaxed (the paper uses 1.2x the minimum delay) gates are
downsized in reverse topological order under exact required-time
bookkeeping, trading the slack for area -- the same area-delay trade-off
the SIS mapper performs when given the loosened constraint.

Both sizing loops take the caller's
:class:`~repro.timing.incremental.IncrementalTiming` engine, over a
caching :class:`~repro.timing.delay.DelayCalculator`, and report every
cell swap through :func:`~repro.timing.incremental.swap_cell`; the
constrain stage times a circuit on one engine from Dmin sizing to its
last budget check.
``speed_up_sizing`` tries each upsize inside an engine transaction and
rolls a rejected one back, so a trial costs its own cone, not a full
analysis.

The area-recovery sweep is provably safe without re-timing after every
accept.  Each gate's required time is the engine's
(:meth:`~repro.timing.incremental.IncrementalTiming.required_at`), which
repairs only the values positioned at or after the gate: every downsize
already accepted in the pass sits later and was noted through
``swap_cell`` (the gate's own variant and every fanin net), so the
value is exact against already-final downstream choices.  Arrivals are
copied from the engine at the start of each pass and are upper bounds
for the rest of it, because downsizing only ever *removes* input
capacitance from upstream nets.  An accepted downsize therefore only
notes the engine; the engine repairs the dirty arrival cones once, when
the next pass copies its arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from repro.library.cells import Cell, Library
from repro.netlist.functions import TruthTable, _var_pattern, compose_bits
from repro.netlist.network import Network
from repro.mapping.match import MatchTable
from repro.mapping.subject import to_subject_graph
from repro.timing.incremental import (
    IncrementalTiming,
    TimingInfeasible,
    swap_cell,
)

EST_LOAD = 21.0
"""Nominal load (fF) assumed while covering: ~2 average pins + wire."""

DEFAULT_CUTS_PER_NODE = 6
"""Priority-cut budget; raising it improves quality at mapping-time cost."""


class MappingError(RuntimeError):
    """The subject graph contains a cone no library cell can implement."""


@dataclass(frozen=True)
class Cut:
    """A cut: ordered leaf names plus the cone's function over them."""

    leaves: tuple[str, ...]
    table: TruthTable


@lru_cache(maxsize=1024)
def _rebase(bits: int, positions: tuple[int, ...], m: int) -> int:
    """A cut table moved onto ``m`` merged leaves.

    Old variable ``k`` becomes merged variable ``positions[k]``.
    """
    return compose_bits(
        len(positions), bits, [_var_pattern(m, p) for p in positions], m
    )


def _cut_bits(
    function_bits: int, leaves: tuple[str, ...], combo: tuple[Cut, ...]
) -> int:
    """A gate's function over ``leaves``, through one fanin-cut combo."""
    m = len(leaves)
    index = leaves.index
    substitutions = [
        _rebase(cut.table.bits, tuple(map(index, cut.leaves)), m)
        for cut in combo
    ]
    return compose_bits(len(combo), function_bits, substitutions, m)


def enumerate_cuts(
    subject: Network, max_leaves: int, per_node: int = DEFAULT_CUTS_PER_NODE
) -> dict[str, list[Cut]]:
    """Priority cuts with local functions for every subject node.

    Each gate keeps its ``per_node`` best non-trivial cuts (fewer leaves
    and shallower leaves first) plus the trivial self-cut that parents
    merge through.  Leaf sets are enumerated and ranked before any
    function is built; only the kept cuts get a table, composed from
    the first fanin-cut combination (in ``product`` order) that yields
    their leaves.
    """
    cuts: dict[str, list[Cut]] = {}
    depth: dict[str, int] = {}
    get_depth = depth.__getitem__
    projection = TruthTable.var(1, 0)
    for name in subject.topological():
        node = subject.nodes[name]
        fanins = node.fanins
        if node.is_input:
            depth[name] = 0
            cuts[name] = [Cut((name,), projection)]
            continue
        depth[name] = 1 + max(map(get_depth, fanins))
        candidates: dict[frozenset, tuple[Cut, ...]] = {}
        for combo in product(*(cuts[f] for f in fanins)):
            merged = frozenset().union(*[cut.leaves for cut in combo])
            if len(merged) > max_leaves or merged in candidates:
                continue
            candidates[merged] = combo
        ranked = sorted(
            (
                len(merged),
                sum(map(get_depth, merged)),
                tuple(sorted(merged)),
                merged,
            )
            for merged in candidates
        )
        function_bits = node.function.bits
        kept = []
        for _, _, leaves, merged in ranked[:per_node]:
            bits = _cut_bits(function_bits, leaves, candidates[merged])
            kept.append(Cut(leaves, TruthTable(len(leaves), bits)))
        kept.append(Cut((name,), projection))
        cuts[name] = kept
    return cuts


@dataclass(frozen=True)
class _Choice:
    cut: Cut
    cell: Cell
    permutation: tuple[int, ...]
    arrival: float


def _cover(
    subject: Network,
    matches: MatchTable,
    cuts: dict[str, list[Cut]],
    est_load: float,
) -> dict[str, _Choice]:
    """Delay-optimal dynamic-programming choice per subject gate."""
    arrival: dict[str, float] = {}
    choice: dict[str, _Choice] = {}
    for name in subject.topological():
        node = subject.nodes[name]
        if node.is_input:
            arrival[name] = 0.0
            continue
        best_key: tuple | None = None
        best: _Choice | None = None
        for cut in cuts[name]:
            if cut.leaves == (name,):
                continue
            for cell, pi in matches.matches(cut.table):
                at = max(
                    arrival[cut.leaves[pi[k]]] + cell.pin_delay(k, est_load)
                    for k in range(cell.n_inputs)
                )
                key = (at, cell.area, cell.name, cut.leaves)
                if best_key is None or key < best_key:
                    best_key = key
                    best = _Choice(cut, cell, pi, at)
        if best is None:
            raise MappingError(
                f"no library cell matches any cut of node {name!r} "
                f"({node.function!r})"
            )
        arrival[name] = best.arrival
        choice[name] = best
    return choice


def _extract(
    subject: Network, choice: dict[str, _Choice], name: str
) -> Network:
    """Materialize the chosen cover as a mapped network."""
    mapped = Network(name)
    for input_name in subject.inputs:
        mapped.add_input(input_name)

    roots = [out for out in subject.outputs if not subject.nodes[out].is_input]
    stack = list(roots)
    while stack:
        current = stack[-1]
        if current in mapped.nodes:
            stack.pop()
            continue
        picked = choice[current]
        fanins = [
            picked.cut.leaves[picked.permutation[k]]
            for k in range(picked.cell.n_inputs)
        ]
        missing = [
            f
            for f in fanins
            if f not in mapped.nodes and not subject.nodes[f].is_input
        ]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        mapped.add_node(current, fanins, picked.cell.function, picked.cell)

    for out in subject.outputs:
        mapped.set_output(out)
    return mapped


def map_network(
    network: Network,
    library: Library,
    match_table: MatchTable | None = None,
    per_node: int = DEFAULT_CUTS_PER_NODE,
    est_load: float = EST_LOAD,
) -> Network:
    """Minimum-delay technology mapping of an optimized network."""
    matches = match_table or MatchTable(library)
    subject = to_subject_graph(network)
    cuts = enumerate_cuts(subject, matches.max_arity, per_node)
    choice = _cover(subject, matches, cuts, est_load)
    return _extract(subject, choice, f"{network.name}_mapped")


def speed_up_sizing(engine: IncrementalTiming, max_passes: int = 12) -> float:
    """Upsize critical-path gates until the worst delay stops improving.

    The covering DP works with estimated loads, so the freshly-extracted
    mapping is not load-aware-minimal; this greedy pass (try the next
    size up for each critical-path gate, keep it only if the measured
    worst delay drops) plays the fanout-optimization role of the paper's
    ``map -n1 -AFG`` and makes the "minimum delay" that anchors the 20%
    relaxation honest.  ``engine`` times the mapped network on a caching
    calculator.  Returns the final worst delay.
    """
    calculator = engine.calculator
    mapped = engine.network
    library = calculator.library
    best = engine.worst_delay
    for _ in range(max_passes):
        improved = False
        for name in engine.critical_path():
            node = mapped.nodes[name]
            if node.is_input:
                continue
            bigger = library.next_size_up(node.cell)
            if bigger is None:
                continue
            original = node.cell
            engine.begin()
            swap_cell(calculator, engine, name, bigger)
            candidate = engine.worst_delay
            if candidate < best - 1e-12:
                engine.commit()
                best = candidate
                improved = True
            else:
                swap_cell(calculator, engine, name, original)
                engine.rollback()
        if not improved:
            break
    return best


def recover_area(engine: IncrementalTiming, tspec: float) -> int:
    """Downsize gates under ``tspec``; returns the number of resizes.

    Repeated reverse-topological sweeps with exact suffix required times
    and conservative (pass-start) arrivals; see the module docstring for
    the safety argument.  Passes repeat until a fixpoint because every
    accepted downsize sheds input capacitance upstream, creating room
    for further downsizing -- this is what consumes the relaxed
    constraint's slack the way the paper's area-delay-trade-off remap
    does.  ``engine`` times the mapped network on a caching calculator
    and is retimed to ``tspec``
    (:meth:`~repro.timing.incremental.IncrementalTiming.set_tspec`):
    its required times are read against this budget.  Raises
    :class:`~repro.timing.incremental.TimingInfeasible` if the input
    mapping already misses ``tspec``.
    """
    calculator = engine.calculator
    mapped = engine.network
    library = calculator.library
    if engine.worst_delay > tspec + 1e-9:
        raise TimingInfeasible(
            f"mapping misses tspec before recovery: "
            f"{engine.worst_delay:.3f} > {tspec:.3f} ns"
        )

    engine.set_tspec(tspec)
    resized = 0
    while True:
        resized_this_pass = 0
        arrival = engine.arrival_snapshot()
        for name in reversed(mapped.topological()):
            node = mapped.nodes[name]
            if node.is_input:
                continue
            req = engine.required_at(name)
            load = calculator.load(name)
            for candidate in library.variants(node.cell.base):
                if candidate.size >= node.cell.size:
                    break
                at = max(
                    arrival[fanin] + candidate.pin_delay(pin, load)
                    for pin, fanin in enumerate(node.fanins)
                )
                if at <= req:
                    swap_cell(calculator, engine, name, candidate)
                    resized_this_pass += 1
                    break
        resized += resized_this_pass
        if not resized_this_pass:
            break

    if engine.worst_delay > tspec + 1e-9:
        raise AssertionError(
            f"area recovery broke timing: {engine.worst_delay:.3f} > "
            f"{tspec:.3f} ns"
        )
    return resized


__all__ = [
    "Cut",
    "MappingError",
    "enumerate_cuts",
    "map_network",
    "speed_up_sizing",
    "recover_area",
    "EST_LOAD",
    "DEFAULT_CUTS_PER_NODE",
]
