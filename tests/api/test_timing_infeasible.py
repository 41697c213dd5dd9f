"""A timing budget below the circuit's delay fails before the first move.

Scaling a network whose starting delay already misses ``tspec`` raises
:class:`~repro.timing.incremental.TimingInfeasible` before the method
runs, instead of a bare ``AssertionError`` from the final legality
check after gates were demoted.  Area recovery on a mapping that misses
its budget raises the same type, so a campaign row names it.
"""

import dataclasses
import functools

import pytest

from repro.api import Flow, FlowConfig
from repro.api import flow as flow_module
from repro.flow.campaign import build_jobs, iter_group_rows
from repro.timing.incremental import TimingInfeasible

CIRCUIT = "C432"
METHODS = ("cvs", "dscale", "gscale")


@functools.cache
def _prepared():
    return Flow(FlowConfig(circuit=CIRCUIT)).prepare()


def _spy_on_methods(monkeypatch):
    """Record the name of every scaling method whose ``run`` is entered."""
    entered = []
    get_method = flow_module.get_method

    def spied(name):
        method = get_method(name)

        def run(state, config):
            entered.append(method.name)
            return method.run(state, config)

        return dataclasses.replace(method, run=run)

    monkeypatch.setattr(flow_module, "get_method", spied)
    return entered


@pytest.mark.parametrize("method", METHODS)
def test_scale_below_the_network_delay_raises_before_the_method(
    monkeypatch, method
):
    prepared = _prepared()
    entered = _spy_on_methods(monkeypatch)
    flow = Flow(FlowConfig(circuit=CIRCUIT, method=method))
    with pytest.raises(TimingInfeasible, match="misses tspec before scaling"):
        flow.scale(
            prepared.network,
            0.97 * prepared.min_delay,
            activity=prepared.activity,
        )
    assert entered == []
    # The spy sees a feasible budget's run.
    flow.scale(prepared.network, prepared.tspec, activity=prepared.activity)
    assert entered == [method]


def test_campaign_rows_name_the_typed_error():
    jobs = build_jobs([CIRCUIT], methods=METHODS, slack_factors=(0.97,))
    rows = [row for _job, row in iter_group_rows(jobs)]
    assert [row["method"] for row in rows] == list(METHODS)
    for row in rows:
        assert row["status"] == "failed"
        assert row["error"].startswith("TimingInfeasible: ")
