"""Prepare stays linear in netlist edits and times each circuit once.

Every optimization edit used to drop the whole adjacency, so the next
fanout query rescanned the network: hundreds of rebuilds per prepare.
Edits now keep the fanout sets live and only the order caches are
rebuilt, a handful of times per prepare at any circuit size.

The constrain stage builds one timing engine per circuit, and the
sizing loops and every budget check repair it, so prepare runs one
full sweep over one flat snapshot.

Scaling only reads the prepared network: every method scales it
itself, checks it once, and keeps its rails, converters and resized
cells on its own state.
"""

import pytest

import repro.api.flow
import repro.timing.incremental as incremental
from repro.api import Flow, FlowConfig, PreparedCircuit
from repro.core.restore import materialize_converters
from repro.library.compass import build_compass_library
from repro.netlist.network import Network
from repro.netlist.validate import NetworkError
from repro.power.activity import random_activities
from repro.timing.incremental import IncrementalTiming

CIRCUITS = ["C432", "gen:layered:width=24:depth=24:seed=1"]

MAX_BUILDS = 10
"""The bound on order-cache rebuilds per prepare (about 6 measured)."""

RAILS = {"2rails": (5.0, 4.3), "3rails": (5.0, 4.3, 3.6)}


@pytest.fixture(scope="module", params=sorted(RAILS))
def rail_flow(request):
    rails = RAILS[request.param]
    library = build_compass_library(rails=rails)
    return Flow(FlowConfig(rails=rails), library=library)


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_prepare_rebuild_count_is_bounded(circuit, library, monkeypatch):
    builds = []
    build = Network._build_adjacency

    def counted(self):
        builds.append(self.name)
        build(self)

    monkeypatch.setattr(Network, "_build_adjacency", counted)
    Flow(FlowConfig(circuit=circuit), library=library).prepare()
    assert len(builds) <= MAX_BUILDS


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_prepare_builds_one_engine_and_one_snapshot(
    circuit, rail_flow, monkeypatch
):
    engines, snapshots = [], []
    init = IncrementalTiming.__init__
    build_flat = incremental.build_flat

    def counted_init(self, *args, **kwargs):
        engines.append(self)
        init(self, *args, **kwargs)

    def counted_build_flat(*args, **kwargs):
        snapshots.append(args[0])
        return build_flat(*args, **kwargs)

    monkeypatch.setattr(IncrementalTiming, "__init__", counted_init)
    monkeypatch.setattr(incremental, "build_flat", counted_build_flat)
    rail_flow.prepare(circuit)
    assert len(engines) == 1
    assert len(snapshots) == 1


def _unbound(network):
    """``network`` with its first gate's cell unbound."""
    network.nodes[network.gates()[0]].cell = None
    return network


def test_flow_scale_checks_its_network(mapped_adder, library):
    flow = Flow(FlowConfig(), library=library)
    with pytest.raises(NetworkError, match="no cell"):
        flow.scale(_unbound(mapped_adder), 100.0)


def test_bad_prepared_circuit_raises_at_first_execute(mapped_adder, library):
    network = _unbound(mapped_adder)
    prepared = PreparedCircuit(
        "bad",
        network,
        tspec=100.0,
        min_delay=1.0,
        activity=random_activities(network, n_vectors=64, seed=1),
    )
    with pytest.raises(NetworkError, match="no cell"):
        Flow(FlowConfig(), library=library).execute(prepared=prepared)


SCALE_ORDER = ("gscale", "cvs", "dscale")


def test_one_check_per_prepared_circuit(library, monkeypatch):
    flow = Flow(FlowConfig(circuit="C432"), library=library)
    prepared = flow.prepare()
    checked = []
    check = repro.api.flow.check_network

    def counted(network, **kwargs):
        checked.append(network)
        check(network, **kwargs)

    monkeypatch.setattr(repro.api.flow, "check_network", counted)
    for method in SCALE_ORDER:
        flow.replace(method=method).run(prepared=prepared)
    assert checked == [prepared.network]


def test_scaling_never_writes_the_prepared_network(rail_flow, monkeypatch):
    flow = rail_flow.replace(circuit="C432")
    prepared = flow.prepare()
    network = prepared.network
    cells = {name: node.cell for name, node in network.nodes.items()}
    calls = []
    copy = Network.copy
    build = Network._build_adjacency

    def counted_copy(self, *args, **kwargs):
        calls.append("copy")
        return copy(self, *args, **kwargs)

    def counted_build(self):
        calls.append("adjacency")
        build(self)

    monkeypatch.setattr(Network, "copy", counted_copy)
    monkeypatch.setattr(Network, "_build_adjacency", counted_build)
    states = {
        method: flow.replace(method=method).execute(prepared=prepared).state
        for method in SCALE_ORDER
    }
    assert calls == []
    monkeypatch.undo()
    for name, node in network.nodes.items():
        assert node.cell is cells[name], name
    assert prepared == flow.prepare()
    state = states["gscale"]
    assert state.n_resized > 0
    assert state.network is network
    design = materialize_converters(state)
    for name in network.gates():
        assert design.network.nodes[name].cell == state.cell(name), name
    assert any(
        design.network.nodes[name].cell != cells[name] for name in state.cells
    )
