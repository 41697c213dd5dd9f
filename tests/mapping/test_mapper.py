"""Technology-mapper tests: covering, sizing passes, invariants."""

import dataclasses
import math

import pytest

from repro.bench.generators import multiplier, pla_control, ripple_adder
from repro.bench.mcnc import load_circuit
from repro.library.compass import build_compass_library
from repro.mapping.mapper import (
    enumerate_cuts,
    map_network,
    recover_area,
    speed_up_sizing,
)
from repro.mapping.match import MatchTable
from repro.mapping.subject import to_subject_graph
from repro.netlist.validate import check_network, networks_equivalent
from repro.opt.script import rugged
from repro.timing.delay import DEFAULT_PO_LOAD, DelayCalculator
from repro.timing.incremental import IncrementalTiming, TimingInfeasible
from repro.timing.sta import TimingAnalysis


@pytest.mark.parametrize(
    "factory, kwargs",
    [
        (ripple_adder, {"width": 3}),
        (multiplier, {"width": 3}),
        (
            pla_control,
            {"n_inputs": 10, "n_outputs": 5, "n_products": 12, "seed": 3},
        ),
    ],
)
def test_mapping_preserves_function(factory, kwargs, library, match_table):
    network = factory(**kwargs)
    rugged(network)
    mapped = map_network(network, library, match_table=match_table)
    check_network(mapped, require_mapped=True)
    assert networks_equivalent(network, mapped)


def test_every_gate_bound_to_real_cell(mapped_adder, library):
    for name in mapped_adder.gates():
        cell = mapped_adder.nodes[name].cell
        assert library.cell(cell.name) is cell
        assert cell.vdd == library.vdd_high


def test_interface_preserved(adder_network, library, match_table):
    inputs = list(adder_network.inputs)
    outputs = list(adder_network.outputs)
    rugged(adder_network)
    mapped = map_network(adder_network, library, match_table=match_table)
    assert mapped.inputs == inputs
    assert mapped.outputs == outputs


def test_cut_enumeration_shapes(control_network, library):
    rugged(control_network)
    subject = to_subject_graph(control_network)
    cuts = enumerate_cuts(subject, max_leaves=5, per_node=6)
    for name in subject.topological():
        node_cuts = cuts[name]
        assert node_cuts, f"no cuts for {name}"
        # Trivial self-cut always present (last).
        assert node_cuts[-1].leaves == (name,)
        for cut in node_cuts:
            assert len(cut.leaves) <= 5
            assert cut.table.n_inputs == len(cut.leaves)
            assert list(cut.leaves) == sorted(cut.leaves)


def test_cut_functions_are_correct(control_network, library):
    rugged(control_network)
    subject = to_subject_graph(control_network)
    cuts = enumerate_cuts(subject, max_leaves=4, per_node=8)
    import random

    rng = random.Random(0)
    for name in subject.gates():
        for cut in cuts[name][:3]:
            if cut.leaves == (name,):
                continue
            for _ in range(8):
                assignment = {
                    leaf: rng.randint(0, 1) for leaf in subject.inputs
                }
                values = subject.evaluate(assignment)
                leaf_values = [values[leaf] for leaf in cut.leaves]
                assert cut.table.evaluate(leaf_values) == values[name]


def test_xor_rich_logic_uses_xor_cells(library, match_table):
    network = ripple_adder(width=6)
    rugged(network)
    mapped = map_network(network, library, match_table=match_table)
    bases = {mapped.nodes[g].cell.base for g in mapped.gates()}
    assert bases & {"xor2", "xor3", "xnor2"}, bases
    assert bases & {
        "maj3",
        "aoi21",
        "oai21",
        "and2",
        "nand2",
        "or2",
        "nor2",
        "ao21",
        "mux2",
    }


def test_speed_up_sizing_never_hurts(mapped_adder, library):
    calc = DelayCalculator(mapped_adder, library)
    before = TimingAnalysis(calc, 0.0).worst_delay
    after = speed_up_sizing(_engine(mapped_adder, library))
    assert after <= before + 1e-12


def test_recover_area_respects_tspec(mapped_control, library):
    dmin = speed_up_sizing(_engine(mapped_control, library))
    tspec = 1.2 * dmin
    area_before = _area(mapped_control)
    resized = recover_area(_engine(mapped_control, library), tspec)
    area_after = _area(mapped_control)
    final = TimingAnalysis(DelayCalculator(mapped_control, library), tspec)
    assert final.meets_timing()
    assert area_after <= area_before
    assert resized >= 0


def test_recover_area_rejects_broken_input(mapped_control, library):
    with pytest.raises(ValueError, match="misses tspec"):
        recover_area(_engine(mapped_control, library), tspec=1e-6)


def test_recovery_preserves_function(mapped_adder, library):
    reference = mapped_adder.copy()
    dmin = speed_up_sizing(_engine(mapped_adder, library))
    recover_area(_engine(mapped_adder, library), 1.3 * dmin)
    assert networks_equivalent(reference, mapped_adder)
    check_network(mapped_adder, require_mapped=True)


def test_tighter_tspec_keeps_more_area(mapped_control, library):
    dmin = speed_up_sizing(_engine(mapped_control, library))
    loose = mapped_control.copy()
    tight = mapped_control.copy()
    recover_area(_engine(loose, library), 1.5 * dmin)
    recover_area(_engine(tight, library), 1.02 * dmin)
    assert _area(loose) <= _area(tight) + 1e-9


def _area(network):
    return sum(network.nodes[g].cell.area for g in network.gates())


def _engine(network, library):
    """The timing engine the sizing loops take, as prepare builds it."""
    return IncrementalTiming(
        DelayCalculator(network, library, cache=True), 0.0
    )


# ---------------------------------------------------------------------
# Differential: the engine-based sizing loops against the serial
# TimingAnalysis versions they replaced, kept here verbatim as oracles.
# ---------------------------------------------------------------------


def _reference_speed_up_sizing(
    mapped, library, po_load=DEFAULT_PO_LOAD, max_passes=12
):
    calculator = DelayCalculator(mapped, library, po_load=po_load)
    best = TimingAnalysis(calculator, 0.0).worst_delay
    for _ in range(max_passes):
        improved = False
        analysis = TimingAnalysis(calculator, 0.0)
        for name in analysis.critical_path():
            node = mapped.nodes[name]
            if node.is_input:
                continue
            bigger = library.next_size_up(node.cell)
            if bigger is None:
                continue
            original = node.cell
            node.cell = bigger
            candidate = TimingAnalysis(calculator, 0.0).worst_delay
            if candidate < best - 1e-12:
                best = candidate
                improved = True
            else:
                node.cell = original
        if not improved:
            break
    return best


def _reference_recover_area(mapped, library, tspec, po_load=DEFAULT_PO_LOAD):
    calculator = DelayCalculator(mapped, library, po_load=po_load)
    analysis = TimingAnalysis(calculator, tspec)
    if not analysis.meets_timing():
        raise TimingInfeasible(
            f"mapping misses tspec before recovery: "
            f"{analysis.worst_delay:.3f} > {tspec:.3f} ns"
        )

    resized = 0
    while True:
        resized_this_pass = 0
        required = {}
        for name in reversed(mapped.topological()):
            node = mapped.nodes[name]
            req = tspec if name in mapped.outputs else math.inf
            for reader in mapped.fanouts(name):
                reader_node = mapped.nodes[reader]
                reader_load = calculator.load(reader)
                for pin, fanin in enumerate(reader_node.fanins):
                    if fanin != name:
                        continue
                    req = min(
                        req,
                        required[reader]
                        - reader_node.cell.pin_delay(pin, reader_load),
                    )
            required[name] = req
            if node.is_input:
                continue

            load = calculator.load(name)
            for candidate in library.variants(node.cell.base):
                if candidate.size >= node.cell.size:
                    break
                at = max(
                    analysis.arrival[fanin] + candidate.pin_delay(pin, load)
                    for pin, fanin in enumerate(node.fanins)
                )
                if at <= req:
                    node.cell = candidate
                    resized_this_pass += 1
                    break
        resized += resized_this_pass
        if not resized_this_pass:
            break
        analysis = TimingAnalysis(calculator, tspec)

    if not analysis.meets_timing():
        raise AssertionError(
            f"area recovery broke timing: {analysis.worst_delay:.3f} > "
            f"{tspec:.3f} ns"
        )
    return resized


DIFF_CIRCUITS = (
    "C432",
    "alu2",
    "b9",
    "f51m",
    "my_adder",
    "gen:layered:width=8:depth=8:seed=3",
)
DIFF_RAILS = {"2rails": (5.0, 4.3), "3rails": (5.0, 4.3, 3.6)}


@pytest.fixture(scope="module", params=sorted(DIFF_RAILS))
def diff_library(request):
    library = build_compass_library(rails=DIFF_RAILS[request.param])
    return library, MatchTable(library)


def _cells(network):
    return {
        name: node.cell.name if node.cell else None
        for name, node in network.nodes.items()
    }


def _error(fn, *args):
    with pytest.raises((ValueError, AssertionError)) as info:
        fn(*args)
    return info.type, str(info.value)


def _inflated_variants(library, monkeypatch):
    """Offer every gate a "smaller" cell with 50x its input caps.

    Recovery's safety argument assumes a downsize sheds input
    capacitance; this twin breaks it, so the exit check must fire.
    """
    real = library.variants

    def variants(base, vdd=None):
        cells = real(base, vdd)
        if vdd is not None and vdd != library.vdd_high:
            return cells
        smallest = cells[0]
        fake = dataclasses.replace(
            smallest,
            name=f"{smallest.name}_inflated",
            size=smallest.size - 1,
            input_caps=tuple(50.0 * cap for cap in smallest.input_caps),
        )
        return [fake, *cells]

    monkeypatch.setattr(library, "variants", variants)


@pytest.mark.parametrize("circuit", DIFF_CIRCUITS)
def test_sizing_loops_match_timing_analysis_reference(
    circuit, diff_library, monkeypatch
):
    library, match_table = diff_library
    network = load_circuit(circuit)
    rugged(network)
    mapped = map_network(network, library, match_table=match_table)
    ours, theirs = mapped.copy(), mapped.copy()

    min_delay = speed_up_sizing(_engine(ours, library))
    assert min_delay == _reference_speed_up_sizing(theirs, library)
    assert _cells(ours) == _cells(theirs)

    tspec = 1.2 * min_delay
    resized = recover_area(_engine(ours, library), tspec)
    assert resized > 0
    assert resized == _reference_recover_area(theirs, library, tspec)
    assert _cells(ours) == _cells(theirs)

    missed = _error(recover_area, _engine(ours, library), 1e-6)
    assert missed[0] is TimingInfeasible
    assert missed == _error(_reference_recover_area, theirs, library, 1e-6)

    tight = speed_up_sizing(_engine(ours, library))
    _reference_speed_up_sizing(theirs, library)
    _inflated_variants(library, monkeypatch)
    broken = _error(recover_area, _engine(ours, library), tight)
    assert broken[0] is AssertionError
    assert broken == _error(_reference_recover_area, theirs, library, tight)
    assert _cells(ours) == _cells(theirs)
