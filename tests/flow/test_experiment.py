"""Experiment pipeline tests (the paper's section 4 setup)."""

import pytest

from repro.api import Flow, FlowConfig
from repro.flow.experiment import run_circuit, run_suite
from repro.netlist.validate import check_network
from repro.timing.delay import DelayCalculator
from repro.timing.sta import TimingAnalysis


@pytest.fixture(scope="module")
def z4ml_result(library):
    return run_circuit("z4ml", library)


def test_prepare_constraint_semantics(library, match_table):
    """tspec is the remapped circuit's own delay, within the 20% window.

    The paper: remap under a 20%-loosened budget, then use "the delay of
    the mapped circuit as the timing constraint" -- so the algorithms
    start with zero slack on the remapped critical paths.
    """
    prepared = Flow(
        FlowConfig(circuit="pm1"), library=library, match_table=match_table
    ).prepare()
    assert prepared.min_delay <= prepared.tspec \
        <= 1.2 * prepared.min_delay + 1e-9
    check_network(prepared.network, require_mapped=True)
    analysis = TimingAnalysis(
        DelayCalculator(prepared.network, library), prepared.tspec
    )
    assert analysis.meets_timing()
    assert analysis.worst_delay == pytest.approx(prepared.tspec)


def test_prepare_accepts_network_objects(library, match_table,
                                         adder_network):
    prepared = Flow(
        FlowConfig(), library=library, match_table=match_table
    ).prepare(adder_network)
    assert prepared.name == adder_network.name


def test_run_circuit_produces_all_methods(z4ml_result):
    assert set(z4ml_result.reports) == {"cvs", "dscale", "gscale"}
    assert z4ml_result.org_power_uw > 0
    assert z4ml_result.gates > 0


def test_methods_share_one_baseline(z4ml_result):
    baselines = {
        report.power_before_uw
        for report in z4ml_result.reports.values()
    }
    assert len(baselines) == 1


def test_run_suite_collects_rows(library):
    results = run_suite(["z4ml", "x2"], library)
    assert [r.name for r in results] == ["z4ml", "x2"]


def test_slack_factor_controls_opportunity(library, match_table):
    tight = run_circuit("pm1", library, slack_factor=1.05,
                        match_table=match_table)
    loose = run_circuit("pm1", library, slack_factor=1.5,
                        match_table=match_table)
    assert (loose.reports["cvs"].low_ratio
            >= tight.reports["cvs"].low_ratio - 1e-9)
    assert loose.improvement("cvs") >= tight.improvement("cvs") - 1e-9
