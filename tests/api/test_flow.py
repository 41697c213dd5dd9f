"""Flow pipeline tests: stages, swapping, registry dispatch, artifacts."""

import dataclasses
import pickle

import pytest

from repro.api import (
    STAGES,
    Flow,
    FlowConfig,
    PreparedCircuit,
    RunArtifact,
    ScalingMethod,
    register_method,
    unregister_method,
)
from repro.flow.store import rows_equal


@pytest.fixture(scope="module")
def pm1_flow(library):
    return Flow(FlowConfig(circuit="pm1"), library=library)


@pytest.fixture(scope="module")
def pm1_prepared(pm1_flow):
    return pm1_flow.prepare()


def test_stage_order_is_the_paper_flow():
    assert STAGES == ("optimize", "map", "constrain", "scale",
                      "restore", "measure")


def test_prepare_returns_constrained_circuit(pm1_prepared):
    assert isinstance(pm1_prepared, PreparedCircuit)
    assert pm1_prepared.name == "pm1"
    assert pm1_prepared.min_delay <= pm1_prepared.tspec \
        <= 1.2 * pm1_prepared.min_delay + 1e-9
    assert pm1_prepared.activity is not None


def test_run_produces_ok_artifact(pm1_flow, pm1_prepared):
    artifact = pm1_flow.run(prepared=pm1_prepared)
    assert artifact.ok
    assert artifact.circuit == "pm1"
    assert artifact.method == "gscale"
    assert artifact.report.improvement_pct > 0
    assert artifact.gates == sum(
        1 for n in pm1_prepared.network.nodes.values() if not n.is_input
    )
    assert artifact.job_id == "pm1:gscale:v4.3:s1.2"


def test_one_prepared_circuit_serves_every_method(pm1_flow, pm1_prepared):
    baselines = set()
    for method in ("cvs", "dscale", "gscale"):
        artifact = pm1_flow.replace(method=method).run(
            prepared=pm1_prepared
        )
        assert artifact.method == method
        baselines.add(artifact.report.power_before_uw)
    assert len(baselines) == 1  # shared activity -> shared baseline


def test_unpickled_prepared_circuit_scales_to_the_same_row(library):
    flow = Flow(FlowConfig(circuit="C432", method="gscale"), library=library)
    prepared = flow.prepare()
    twin = pickle.loads(pickle.dumps(prepared))
    assert twin.network is not prepared.network
    rows = [flow.run(prepared=p).to_row() for p in (prepared, twin)]
    assert rows_equal(rows[:1], rows[1:])


def test_prepared_circuits_compare_networks_by_content(library):
    flow = Flow(FlowConfig(circuit="C432"), library=library)
    prepared = flow.prepare()
    again = flow.prepare()
    twin = pickle.loads(pickle.dumps(prepared))
    for other in (again, twin):
        assert other.network is not prepared.network
        assert other == prepared
    # Network itself stays identity-equal and hashable.
    assert twin.network != prepared.network
    assert len({twin.network, prepared.network}) == 2
    swapped = pickle.loads(pickle.dumps(prepared))
    node = next(
        node
        for node in swapped.network.nodes.values()
        if node.cell is not None and library.next_size_up(node.cell)
    )
    node.cell = library.next_size_up(node.cell)
    assert swapped != prepared
    assert dataclasses.replace(prepared, tspec=prepared.tspec * 1.1) != (
        prepared
    )


def test_replace_keeps_library_when_rails_unchanged(pm1_flow):
    sibling = pm1_flow.replace(method="cvs")
    assert sibling.library is pm1_flow.library
    rebuilt = pm1_flow.replace(vdd_low=3.7)
    assert rebuilt._library is None  # different rail key -> lazy rebuild


def test_with_stage_swaps_one_stage(pm1_flow):
    seen = []

    def nop_optimize(ctx):
        seen.append(ctx.network.name)

    flow = pm1_flow.with_stage("optimize", nop_optimize)
    prepared = flow.prepare()
    assert seen == ["pm1"]
    # the default flow is untouched
    assert pm1_flow.stages["optimize"] is not nop_optimize
    artifact = flow.run(prepared=prepared)
    assert artifact.ok


def test_with_stage_rejects_unknown_stage(pm1_flow):
    with pytest.raises(ValueError, match="unknown stage"):
        pm1_flow.with_stage("place", lambda ctx: None)
    with pytest.raises(ValueError, match="unknown stage"):
        Flow(FlowConfig(), stages={"route": lambda ctx: None})


def test_execute_exposes_state_and_design(pm1_flow, pm1_prepared):
    ctx = pm1_flow.replace(
        method="dscale", materialize=True
    ).execute(prepared=pm1_prepared)
    assert ctx.state is not None
    assert ctx.design is not None
    assert ctx.artifact.report.n_converters == len(ctx.state.lc_edges)
    # materialization never perturbs the measured artifact
    plain = pm1_flow.replace(method="dscale").run(prepared=pm1_prepared)
    assert dataclasses.asdict(ctx.artifact.report) | {"runtime_s": 0} \
        == dataclasses.asdict(plain.report) | {"runtime_s": 0}


def test_scale_entry_matches_full_flow(pm1_flow, pm1_prepared):
    state, artifact = pm1_flow.scale(
        pm1_prepared.network, pm1_prepared.tspec,
        activity=pm1_prepared.activity,
    )
    full = pm1_flow.run(prepared=pm1_prepared)
    a, b = (dataclasses.asdict(artifact.report),
            dataclasses.asdict(full.report))
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b
    assert state.n_low == artifact.report.n_low


def test_run_from_blif_file(tmp_path, library):
    blif = tmp_path / "toy.blif"
    blif.write_text(
        ".model toy\n.inputs a b c\n.outputs f\n"
        ".names a b t\n11 1\n.names t c f\n1- 1\n-1 1\n.end\n"
    )
    flow = Flow(FlowConfig(circuit=str(blif)), library=library)
    artifact = flow.run()
    assert artifact.ok
    assert artifact.report.n_gates > 0


def test_empty_config_without_source_rejected():
    with pytest.raises(ValueError, match="circuit is empty"):
        Flow(FlowConfig()).prepare()


def test_unknown_method_rejected_at_scale(pm1_flow, pm1_prepared):
    with pytest.raises(ValueError, match="method"):
        pm1_flow.replace(method="warp").run(prepared=pm1_prepared)


# -- registry-injected methods through the whole stack ----------------


def test_custom_method_runs_end_to_end(pm1_flow, pm1_prepared):
    def demote_nothing(state, config):
        return None

    register_method(ScalingMethod("noop_flow_test", demote_nothing))
    try:
        artifact = pm1_flow.replace(method="noop_flow_test").run(
            prepared=pm1_prepared
        )
        assert artifact.ok
        assert artifact.method == "noop_flow_test"
        assert artifact.report.improvement_pct == pytest.approx(0.0)
        assert artifact.report.n_low == 0
    finally:
        unregister_method("noop_flow_test")


def test_custom_method_sees_config_knobs(pm1_flow, pm1_prepared):
    seen = {}

    def probing(state, config):
        seen["max_iter"] = config.max_iter
        seen["tspec"] = state.tspec

    register_method(ScalingMethod("probe_flow_test", probing))
    try:
        pm1_flow.replace(method="probe_flow_test", max_iter=3).run(
            prepared=pm1_prepared
        )
        assert seen["max_iter"] == 3
        assert seen["tspec"] == pytest.approx(pm1_prepared.tspec)
    finally:
        unregister_method("probe_flow_test")


def test_dual_rail_only_method_rejects_msv_library():
    register_method(
        ScalingMethod("dual_only_test", lambda state, config: None,
                      multi_rail=False)
    )
    try:
        flow = Flow(FlowConfig(circuit="z4ml", rails=(5.0, 4.3, 3.6),
                               method="dual_only_test"))
        with pytest.raises(ValueError, match="dual-rail"):
            flow.run()
    finally:
        unregister_method("dual_only_test")


def test_custom_method_through_cli_main(capsys):
    from repro.__main__ import main

    register_method(
        ScalingMethod("noop_cli_test", lambda state, config: None)
    )
    try:
        assert main(["run", "z4ml", "--method", "noop_cli_test"]) == 0
        out = capsys.readouterr().out
        assert "noop_cli_test" in out and "0.00% saved" in out
    finally:
        unregister_method("noop_cli_test")


def test_cli_plugin_flag_imports_and_registers(tmp_path, capsys,
                                               monkeypatch):
    plugin = tmp_path / "my_scaling_plugin.py"
    plugin.write_text(
        "from repro.api import ScalingMethod, register_method\n"
        "from repro.api.registry import is_registered\n"
        "if not is_registered('plugin_method_test'):\n"
        "    register_method(ScalingMethod(\n"
        "        'plugin_method_test', lambda state, config: None))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    from repro.__main__ import main
    from repro.api import unregister_method

    try:
        assert main(["run", "z4ml", "--plugin", "my_scaling_plugin",
                     "--method", "plugin_method_test"]) == 0
        assert "plugin_method_test" in capsys.readouterr().out
    finally:
        unregister_method("plugin_method_test")
