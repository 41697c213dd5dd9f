"""``Flow.scale`` front-door tests: enter at the scale stage."""

import pytest

from repro.api import BUILTIN_METHODS as METHODS
from repro.api import Flow, FlowConfig


@pytest.fixture(scope="module")
def prepared(library):
    from repro.bench.generators import mixed_datapath
    from repro.mapping.match import MatchTable

    network = mixed_datapath(width=6, n_control=5, n_products=12, seed=99)
    flow = Flow(FlowConfig(), library=library, match_table=MatchTable(library))
    return flow.prepare(network)


def _scale(prepared, library, method, activity=None):
    flow = Flow(FlowConfig(method=method), library=library)
    state, artifact = flow.scale(
        prepared.network, prepared.tspec, activity=activity
    )
    return state, artifact.report


def test_unknown_method_rejected(prepared, library):
    with pytest.raises(ValueError, match="method"):
        _scale(prepared, library, "magic")


@pytest.mark.parametrize("method", METHODS)
def test_report_fields_consistent(prepared, library, method):
    state, report = _scale(prepared, library, method, prepared.activity)
    assert report.method == method
    assert report.power_after_uw <= report.power_before_uw + 1e-9
    assert report.improvement_pct == pytest.approx(
        100
        * (report.power_before_uw - report.power_after_uw)
        / report.power_before_uw
    )
    assert report.n_low == state.n_low
    assert report.low_ratio == pytest.approx(state.low_ratio)
    assert report.n_converters == len(state.lc_edges)
    assert report.worst_delay_ns <= prepared.tspec + 1e-9
    assert report.runtime_s >= 0


def test_method_ordering_on_this_circuit(prepared, library):
    """The paper's ordering: CVS <= Dscale and CVS <= Gscale."""
    improvements = {}
    for method in METHODS:
        _, report = _scale(prepared, library, method, prepared.activity)
        improvements[method] = report.improvement_pct
    assert improvements["dscale"] >= improvements["cvs"] - 1e-9
    assert improvements["gscale"] >= improvements["cvs"] - 1e-9


def test_activity_is_optional(prepared, library):
    _, report = _scale(prepared, library, "cvs")
    assert report.power_before_uw > 0
