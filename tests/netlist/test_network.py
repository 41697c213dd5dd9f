"""Unit tests for the logic-network data structure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.mcnc import load_circuit
from repro.netlist.functions import TruthTable, random_table
from repro.netlist.network import Network, Node

COPY_CIRCUITS = ["C432", "alu2", "i1", "gen:layered:width=10:depth=10:seed=1"]

_AND2 = TruthTable.and_(2)
_OR2 = TruthTable.or_(2)
_INV = TruthTable.inverter()


def small_network() -> Network:
    net = Network("small")
    net.add_input("a")
    net.add_input("b")
    net.add_node("t", ["a", "b"], _AND2)
    net.add_node("f", ["t", "a"], _OR2)
    net.set_output("f")
    return net


class TestConstruction:
    def test_duplicate_input_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")

    def test_duplicate_node_rejected(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.add_node("t", ["a", "b"], _AND2)

    def test_unknown_fanin_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_node("t", ["a", "zz"], _AND2)

    def test_arity_mismatch_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_node("t", ["a"], _AND2)

    def test_unknown_output_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.set_output("zz")

    def test_set_output_idempotent(self):
        net = small_network()
        net.set_output("f")
        assert net.outputs.count("f") == 1

    def test_fresh_name_avoids_collisions(self):
        net = small_network()
        name = net.fresh_name("t")
        assert name not in net.nodes


class TestTopology:
    def test_fanouts(self):
        net = small_network()
        assert net.fanouts("a") == {"t", "f"}
        assert net.fanouts("f") == set()

    def test_topological_order_respects_edges(self):
        net = small_network()
        order = net.topological()
        assert order.index("a") < order.index("t") < order.index("f")

    def test_cycle_detection(self):
        net = Network()
        net.add_input("a")
        net.add_node("x", ["a", "a"], _AND2)
        net.add_node("y", ["x", "a"], _AND2)
        # Force a cycle behind the API's back.
        net.nodes["x"].fanins = ["y", "a"]
        net._invalidate()
        with pytest.raises(ValueError, match="cycle"):
            net.topological()

    def test_transitive_fanin(self):
        net = small_network()
        assert net.transitive_fanin(["f"]) == {"f", "t", "a", "b"}
        assert net.transitive_fanin(["t"]) == {"t", "a", "b"}

    def test_transitive_fanout(self):
        net = small_network()
        assert net.transitive_fanout(["b"]) == {"b", "t", "f"}

    def test_depth(self):
        assert small_network().depth() == 2

    def test_stats(self):
        stats = small_network().stats()
        assert stats == {
            "inputs": 2,
            "outputs": 1,
            "gates": 2,
            "nets": 4,
            "depth": 2,
        }

    def test_repeated_fanin_counts_once_for_topo(self):
        net = Network()
        net.add_input("a")
        net.add_node("x", ["a", "a"], _AND2)
        net.set_output("x")
        assert net.topological() == ["a", "x"]


class TestEditing:
    def test_replace_fanin(self):
        net = small_network()
        net.add_input("c")
        net.replace_fanin("f", "a", "c")
        assert net.nodes["f"].fanins == ["t", "c"]
        assert "f" in net.fanouts("c")

    def test_replace_fanin_unknown(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.replace_fanin("f", "zz", "a")

    def test_substitute_rewires_readers_and_outputs(self):
        net = small_network()
        net.add_node("t2", ["a", "b"], _OR2)
        net.substitute("f", "t2")
        assert net.outputs == ["t2"]
        assert net.fanouts("f") == set()

    def test_remove_node_guards(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.remove_node("t")  # has fanout
        with pytest.raises(ValueError):
            net.remove_node("f")  # is output

    def test_remove_detached_node(self):
        net = small_network()
        net.add_node("dead", ["a"], _INV)
        net.remove_node("dead")
        assert "dead" not in net.nodes

    def test_insert_buffer_on_edge(self):
        net = small_network()
        net.insert_buffer("t", "f", "buf1", TruthTable.identity())
        assert net.nodes["f"].fanins == ["buf1", "a"]
        assert net.nodes["buf1"].fanins == ["t"]

    def test_insert_buffer_on_output(self):
        net = small_network()
        net.insert_buffer("f", "@output", "buf2", TruthTable.identity())
        assert net.outputs == ["buf2"]

    def test_insert_buffer_requires_single_input_function(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.insert_buffer("t", "f", "bad", _AND2)

    def test_insert_buffer_rejects_before_editing(self):
        net = Network()
        net.add_input("a")
        net.add_node("g", ["a"], _INV)
        net.add_node("h", ["g"], _INV)
        net.set_output("h")
        before = _snapshot(net)
        with pytest.raises(ValueError, match="not a fanin"):
            net.insert_buffer("a", "h", "lc0", TruthTable.identity())
        with pytest.raises(ValueError, match="not a primary output"):
            net.insert_buffer("g", "@output", "lc1", TruthTable.identity())
        assert _snapshot(net) == before

    def test_rewire_moves_fanouts(self):
        net = small_network()
        net.rewire("f", ["b", "b"], _AND2)
        assert net.nodes["f"].fanins == ["b", "b"]
        assert net.nodes["f"].function == _AND2
        assert net.fanouts("a") == {"t"}
        assert net.fanouts("t") == set()
        assert net.fanouts("b") == {"t", "f"}

    def test_rewire_keeps_function_by_default(self):
        net = small_network()
        net.rewire("f", ["a", "t"])
        assert net.nodes["f"].function == _OR2
        assert net.topological().index("t") < net.topological().index("f")

    @pytest.mark.parametrize(
        "fanins, function",
        [
            (["a"], None),  # kept OR2 needs two fanins
            (["a", "zz"], _AND2),  # unknown fanin
        ],
    )
    def test_rewire_rejects_before_editing(self, fanins, function):
        net = small_network()
        before = _snapshot(net)
        with pytest.raises(ValueError):
            net.rewire("f", fanins, function)
        assert _snapshot(net) == before

    def test_output_substitute_renews_order(self):
        # Snapshots keyed on the topological() list object (FlatNetwork)
        # read the PO set, so an outputs-only edit must renew that list.
        net = small_network()
        net.add_node("t2", ["a", "b"], _OR2)
        order = net.topological()
        net.substitute("f", "t2")
        assert net.topological() is not order

    def test_rewire_rejects_primary_input(self):
        net = small_network()
        with pytest.raises(ValueError, match="primary input"):
            net.rewire("a", [])


class TestEvaluation:
    def test_evaluate_full_adder_row(self):
        net = small_network()
        values = net.evaluate({"a": 1, "b": 0})
        assert values["t"] == 0
        assert values["f"] == 1

    def test_evaluate_words_matches_scalar(self):
        net = small_network()
        words = net.evaluate_words({"a": 0b0101, "b": 0b0011}, 0b1111)
        for lane in range(4):
            scalar = net.evaluate(
                {"a": 0b0101 >> lane & 1, "b": 0b0011 >> lane & 1}
            )
            for name in net.nodes:
                assert words[name] >> lane & 1 == scalar[name]


class TestCopy:
    def test_copy_is_deep_for_structure(self):
        net = small_network()
        clone = net.copy()
        clone.nodes["f"].fanins = ["t", "t"]
        assert net.nodes["f"].fanins == ["t", "a"]

    def test_copy_preserves_interface(self):
        net = small_network()
        clone = net.copy("renamed")
        assert clone.name == "renamed"
        assert clone.inputs == net.inputs
        assert clone.outputs == net.outputs

    def test_iter_and_len(self):
        net = small_network()
        assert len(net) == 4
        assert [node.name for node in net] == net.topological()

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("circuit", COPY_CIRCUITS)
    def test_copies_of_one_network_share_every_order(
        self, circuit, mapped, library
    ):
        # A prepared circuit's scale baseline is adopted by every later
        # copy of its network, which is sound only while all copies of
        # one network iterate their nodes, reader pins and fanout sets
        # in the same order.
        if mapped:
            flow = Flow(FlowConfig(circuit=circuit), library=library)
            net = flow.prepare().network
        else:
            net = load_circuit(circuit)
        first, second = net.copy(), net.copy()
        assert first.topological() == second.topological()
        assert first.reader_pins() == second.reader_pins()
        for name in first.nodes:
            assert list(first.fanouts(name)) == list(second.fanouts(name))


class TestCachedIndexes:
    def test_topo_index_matches_topological(self):
        net = small_network()
        index = net.topo_index()
        assert sorted(index, key=index.get) == net.topological()

    def test_topo_index_invalidated_by_edits(self):
        net = small_network()
        net.topo_index()
        net.add_input("z")
        assert "z" in net.topo_index()

    def test_reader_pins_cover_every_edge(self):
        net = small_network()
        pins = net.reader_pins()
        for name, node in net.nodes.items():
            for pin, fanin in enumerate(node.fanins):
                assert (name, pin) in pins[fanin]
        total = sum(len(v) for v in pins.values())
        assert total == sum(len(n.fanins) for n in net.nodes.values())

    def test_reader_pins_handle_duplicate_fanins(self):
        net = small_network()
        net.add_node("dup", ["a", "a"], _AND2)
        pins = net.reader_pins()
        assert ("dup", 0) in pins["a"] and ("dup", 1) in pins["a"]


def _snapshot(net: Network):
    """Everything an edit may touch, in comparable form."""
    return (
        {
            name: (list(node.fanins), node.function)
            for name, node in net.nodes.items()
        },
        list(net.outputs),
        {name: set(net.fanouts(name)) for name in net.nodes},
        list(net.topological()),
    )


def _seeded_dag(seed: int) -> Network:
    rng = random.Random(seed)
    net = Network("dag")
    for name in ("a", "b", "c"):
        net.add_input(name)
    for k in range(6):
        names = list(net.nodes)
        fanins = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        net.add_node(f"g{k}", fanins, random_table(len(fanins), rng))
    net.set_output("g4")
    net.set_output("g5")
    return net


def _fresh_clone(net: Network) -> Network:
    """Same nodes in the same insertion order, every cache reset."""
    clone = Network(net.name)
    clone.nodes = {
        name: Node(name, node.fanins, node.function)
        for name, node in net.nodes.items()
    }
    clone.inputs = list(net.inputs)
    clone.outputs = list(net.outputs)
    clone._invalidate()
    return clone


def _draw_table(draw, n_inputs: int) -> TruthTable:
    top = (1 << (1 << n_inputs)) - 1
    return TruthTable(n_inputs, draw(st.integers(0, top)))


_EDITS = (
    "add_node",
    "remove_node",
    "replace_fanin",
    "substitute",
    "insert_buffer",
    "rewire",
)


def _random_edit(net: Network, data) -> None:
    """Apply one drawn edit; edits that would close a cycle are skipped."""
    draw = data.draw
    names = list(net.nodes)
    kind = draw(st.sampled_from(_EDITS))
    if kind == "add_node":
        fanins = draw(st.lists(st.sampled_from(names), max_size=3))
        table = _draw_table(draw, len(fanins))
        net.add_node(net.fresh_name("x"), fanins, table)
        return
    name = draw(st.sampled_from(names))
    # Nodes outside name's fanout cone can feed it without a cycle.
    upstream = [n for n in names if n not in net.transitive_fanout([name])]
    node = net.nodes[name]
    if kind == "insert_buffer":
        readers = sorted(net.fanouts(name))
        if name in net.outputs:
            readers.append("@output")
        if readers:
            reader = draw(st.sampled_from(readers))
            buffer = net.fresh_name("buf")
            net.insert_buffer(name, reader, buffer, TruthTable.identity())
    elif kind == "substitute":
        if upstream:
            net.substitute(name, draw(st.sampled_from(upstream)))
    elif node.is_input:
        return
    elif kind == "remove_node":
        if not net.fanouts(name) and name not in net.outputs:
            net.remove_node(name)
    elif kind == "replace_fanin":
        if node.fanins and upstream:
            old = draw(st.sampled_from(node.fanins))
            new = draw(st.sampled_from(upstream))
            net.replace_fanin(name, old, new)
    elif upstream:
        fanins = draw(st.lists(st.sampled_from(upstream), max_size=3))
        net.rewire(name, fanins, _draw_table(draw, len(fanins)))


@given(st.integers(min_value=0, max_value=2**16), st.data())
@settings(max_examples=60, deadline=None)
def test_incremental_adjacency_matches_fresh_rebuild(seed, data):
    """Live fanouts and rebuilt order caches match a from-scratch build.

    Random edit sequences run on a seeded DAG; after each batch every
    fanout set, the topological order and the reader pins must equal
    those of a clone whose caches were all reset.
    """
    net = _seeded_dag(seed)
    net.fanouts("a")
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            _random_edit(net, data)
        fresh = _fresh_clone(net)
        for name in net.nodes:
            assert net.fanouts(name) == fresh.fanouts(name)
        assert net.topological() == fresh.topological()
        assert net.reader_pins() == fresh.reader_pins()
