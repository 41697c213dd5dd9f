"""Prepare stays linear in netlist edits.

Every optimization edit used to drop the whole adjacency, so the next
fanout query rescanned the network: hundreds of rebuilds per prepare.
Edits now keep the fanout sets live and only the order caches are
rebuilt, a handful of times per prepare at any circuit size.
"""

import pytest

from repro.api import Flow, FlowConfig
from repro.netlist.network import Network

CIRCUITS = ["C432", "gen:layered:width=24:depth=24:seed=1"]

MAX_BUILDS = 10
"""The bound on order-cache rebuilds per prepare (about 6 measured)."""


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
