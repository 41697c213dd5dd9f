"""Dual-Vdd delay calculator tests."""

import pytest

from repro.timing.delay import OUTPUT, DelayCalculator


@pytest.fixture()
def calc(mapped_adder, library):
    levels = {}
    lc_edges = set()
    return DelayCalculator(mapped_adder, library, levels=levels,
                           lc_edges=lc_edges), levels, lc_edges


def test_variant_follows_level(calc):
    calculator, levels, _ = calc
    name = calculator.network.gates()[0]
    high = calculator.variant(name)
    assert high.vdd == 5.0
    levels[name] = True
    low = calculator.variant(name)
    assert low.vdd == 4.3
    assert low.base == high.base and low.size == high.size


def test_unmapped_node_rejected(control_network, library):
    calculator = DelayCalculator(control_network, library)
    with pytest.raises(ValueError, match="not mapped"):
        calculator.variant("p1")


def test_load_counts_reader_pins_and_wire(calc):
    calculator, _, _ = calc
    network = calculator.network
    for name in network.gates():
        readers = network.fanouts(name)
        if not readers or name in network.outputs:
            continue
        expected = sum(
            calculator.reader_pin_cap(name, r) for r in readers
        ) + calculator.library.wire_model.cap(len(readers))
        assert calculator.load(name) == pytest.approx(expected)
        break


def test_po_load_included(calc):
    calculator, _, _ = calc
    out = calculator.network.outputs[0]
    bare = sum(
        calculator.reader_pin_cap(out, r)
        for r in calculator.network.fanouts(out)
    )
    assert calculator.load(out) > bare + calculator.po_load - 1


def test_repeated_fanin_pins_all_counted(library):
    from repro.netlist.network import Network

    net = Network()
    net.add_input("a")
    cell = library.cell("nand2_d0")
    net.add_node("x", ["a", "a"], cell.function, cell)
    net.set_output("x")
    calculator = DelayCalculator(net, library)
    assert calculator.reader_pin_cap("a", "x") == pytest.approx(
        sum(cell.input_caps)
    )


def test_converter_replaces_reader_pins(calc):
    calculator, levels, lc_edges = calc
    network = calculator.network
    name = next(
        n for n in network.gates()
        if network.fanouts(n) and n not in network.outputs
    )
    reader = next(iter(network.fanouts(name)))
    before = calculator.load(name)
    levels[name] = True
    lc_edges.add((name, reader))
    after = calculator.load(name)
    delta = (calculator.lc_cell.input_caps[0]
             - calculator.reader_pin_cap(name, reader))
    assert after == pytest.approx(before + delta)


def test_one_converter_serves_all_high_readers(calc):
    calculator, levels, lc_edges = calc
    network = calculator.network
    name = next(
        n for n in network.gates()
        if len(network.fanouts(n)) >= 2 and n not in network.outputs
    )
    readers = sorted(network.fanouts(name))
    levels[name] = True
    for reader in readers:
        lc_edges.add((name, reader))
    # Driver net sees exactly one converter pin plus wire.
    assert calculator.load(name) == pytest.approx(
        calculator.lc_cell.input_caps[0]
        + calculator.library.wire_model.cap(1)
    )
    # Converter net carries every reader pin and nothing else (the
    # converter abuts its receivers; no extra interconnect).
    expected = sum(calculator.reader_pin_cap(name, r) for r in readers)
    assert calculator.converter_loads(name)[0] == pytest.approx(expected)


def test_lc_delay_positive_and_load_dependent(calc):
    calculator, levels, lc_edges = calc
    network = calculator.network
    name = next((n for n in network.gates() if network.fanouts(n)), None)
    if name is None:
        pytest.skip("no gate with a fanout")
    reader = min(network.fanouts(name))
    levels[name] = True
    lc_edges.add((name, reader))
    assert calculator.lc_delay(name) > calculator.lc_cell.intrinsics[0]
    assert calculator.edge_extra_delay(name, reader) == pytest.approx(
        calculator.lc_delay(name)
    )
    assert calculator.edge_extra_delay("nonexistent", reader) == 0.0


def test_demotion_net_change_no_converter_when_readers_low(calc):
    calculator, levels, _ = calc
    network = calculator.network
    name = next(
        n for n in network.gates()
        if network.fanouts(n) and n not in network.outputs
    )
    for reader in network.fanouts(name):
        levels[reader] = True
    change = calculator.demotion_net_change(name, lc_at_outputs=False)
    assert not change.converter_loads
    assert change.new_edges == []
    assert change.load_after == pytest.approx(calculator.load(name))


def test_demotion_net_change_po_policy(calc):
    calculator, _, _ = calc
    network = calculator.network
    out = next(o for o in network.outputs if not network.nodes[o].is_input)
    keep = calculator.demotion_net_change(out, lc_at_outputs=False)
    convert = calculator.demotion_net_change(out, lc_at_outputs=True)
    assert (out, OUTPUT) not in keep.new_edges
    assert (out, OUTPUT) in convert.new_edges


def test_total_area_counts_converters_per_net(calc):
    calculator, levels, lc_edges = calc
    base = calculator.total_area()
    network = calculator.network
    name = next(
        n for n in network.gates()
        if len(network.fanouts(n)) >= 2 and n not in network.outputs
    )
    levels[name] = True
    for reader in network.fanouts(name):
        lc_edges.add((name, reader))
    assert calculator.total_area() == pytest.approx(
        base + calculator.lc_cell.area
    )
