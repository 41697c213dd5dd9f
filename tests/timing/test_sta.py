"""Static timing analysis tests."""

import math

import pytest

from repro.timing.delay import DelayCalculator, OUTPUT
from repro.timing.sta import TimingAnalysis


@pytest.fixture()
def analysis(mapped_adder, library):
    calculator = DelayCalculator(mapped_adder, library)
    return TimingAnalysis(calculator, tspec=100.0)


def test_inputs_arrive_at_zero(analysis):
    for name in analysis.network.inputs:
        assert analysis.arrival[name] == 0.0


def test_arrivals_increase_along_paths(analysis):
    network = analysis.network
    for name in network.gates():
        for fanin in network.nodes[name].fanins:
            assert analysis.arrival[name] > analysis.arrival[fanin]


def test_arrival_matches_manual_recomputation(analysis):
    network = analysis.network
    calc = analysis.calculator
    for name in network.gates():
        node = network.nodes[name]
        cell = calc.variant(name)
        load = calc.load(name)
        expected = max(
            analysis.arrival[f] + cell.pin_delay(pin, load)
            for pin, f in enumerate(node.fanins)
        )
        assert analysis.arrival[name] == pytest.approx(expected)


def test_worst_delay_is_max_output_arrival(analysis):
    expected = max(analysis.arrival[o] for o in analysis.network.outputs)
    assert analysis.worst_delay == pytest.approx(expected)


def test_slack_consistency(analysis):
    # On a single-fanout chain the slack never increases downstream; in
    # general every node's slack is >= the worst slack.
    worst = analysis.worst_slack
    for name in analysis.network.nodes:
        assert analysis.slack(name) >= worst - 1e-12


def test_required_bounded_by_tspec_at_outputs(analysis):
    for out in analysis.network.outputs:
        assert analysis.required[out] <= 100.0 + 1e-12


def test_meets_generous_tspec(analysis):
    assert analysis.meets_timing()


def test_fails_impossible_tspec(mapped_adder, library):
    tight = TimingAnalysis(DelayCalculator(mapped_adder, library), 0.01)
    assert not tight.meets_timing()
    assert tight.worst_slack < 0


def test_critical_path_is_a_real_path(analysis):
    path = analysis.critical_path()
    network = analysis.network
    assert network.nodes[path[0]].is_input
    assert path[-1] in network.outputs
    for upstream, downstream in zip(path, path[1:]):
        assert upstream in network.nodes[downstream].fanins


def test_critical_path_arrival_equals_worst_delay(analysis):
    path = analysis.critical_path()
    assert analysis.arrival[path[-1]] == pytest.approx(analysis.worst_delay)


def test_nodes_with_slack_threshold(analysis):
    generous = analysis.nodes_with_slack(-math.inf)
    assert set(generous) == set(analysis.network.gates())
    assert analysis.nodes_with_slack(math.inf) == []


def test_demotion_slows_the_gate(mapped_adder, library):
    levels = {}
    calculator = DelayCalculator(mapped_adder, library, levels=levels)
    before = TimingAnalysis(calculator, 100.0)
    victim = mapped_adder.gates()[-1]
    levels[victim] = True
    after = TimingAnalysis(calculator, 100.0)
    assert after.arrival[victim] > before.arrival[victim]
    assert after.worst_delay >= before.worst_delay


def test_converter_adds_edge_delay(mapped_adder, library):
    network = mapped_adder
    name = next(
        n for n in network.gates()
        if network.fanouts(n) and n not in network.outputs
    )
    reader = next(iter(network.fanouts(name)))
    levels = {name: True}
    plain = TimingAnalysis(
        DelayCalculator(network, library, levels=levels), 100.0
    )
    converted = TimingAnalysis(
        DelayCalculator(network, library, levels=levels,
                        lc_edges={(name, reader)}), 100.0
    )
    assert converted.arrival[reader] > plain.arrival[reader]


def test_output_converter_extends_worst_delay(mapped_adder, library):
    out = next(
        o for o in mapped_adder.outputs
        if not mapped_adder.nodes[o].is_input
    )
    levels = {out: True}
    plain = TimingAnalysis(
        DelayCalculator(mapped_adder, library, levels=levels), 100.0
    )
    converted = TimingAnalysis(
        DelayCalculator(mapped_adder, library, levels=levels,
                        lc_edges={(out, OUTPUT)}), 100.0
    )
    extra = converted.calculator.edge_extra_delay(out, OUTPUT)
    assert extra > 0
    assert (converted.arrival[out] + extra
            > plain.arrival[out] - 1e-12)
    assert converted.required[out] < plain.required[out]


def test_empty_outputs_worst_delay_zero(library):
    from repro.netlist.network import Network

    net = Network()
    net.add_input("a")
    analysis = TimingAnalysis(DelayCalculator(net, library), 1.0)
    assert analysis.worst_delay == 0.0
    assert analysis.critical_path() == []

