"""Prepare stays linear in netlist edits and times each circuit once.

Every optimization edit used to drop the whole adjacency, so the next
fanout query rescanned the network: hundreds of rebuilds per prepare.
Edits now keep the fanout sets live and only the order caches are
rebuilt, a handful of times per prepare at any circuit size.

The constrain stage builds one timing engine per circuit, and the
sizing loops and every budget check repair it, so prepare runs one
full sweep over one flat snapshot.
"""

import pytest

import repro.timing.incremental as incremental
from repro.api import Flow, FlowConfig
from repro.library.compass import build_compass_library
from repro.netlist.network import Network
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
