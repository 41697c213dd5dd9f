"""RunArtifact: the unified result shape and its store-row schema."""

import pytest

from repro.api import (
    SCHEMA_VERSION,
    Flow,
    FlowConfig,
    RunArtifact,
    ScalingReport,
    artifacts_to_results,
    flow_job_id,
)


def _report(method="gscale", **overrides):
    base = dict(
        method=method, power_before_uw=10.0, power_after_uw=8.0,
        improvement_pct=20.0, n_gates=40, n_low=15, low_ratio=0.375,
        n_converters=2, n_resized=3, area_increase_ratio=0.05,
        worst_delay_ns=1.1, tspec_ns=1.2, runtime_s=0.01,
    )
    base.update(overrides)
    return ScalingReport(**base)


def _artifact(**overrides):
    base = dict(
        circuit="C432", method="gscale", gates=40, org_power_uw=10.0,
        min_delay_ns=1.0, tspec_ns=1.2, report=_report(),
    )
    base.update(overrides)
    return RunArtifact(**base)


def test_job_id_matches_campaign_job_format():
    artifact = _artifact()
    job = FlowConfig(circuit="C432", method="gscale", vdd_low=4.3,
                     slack_factor=1.2)
    assert artifact.job_id == job.job_id == "C432:gscale:v4.3:s1.2"
    msv = _artifact(rails=(5.0, 4.3, 3.6))
    msv_job = FlowConfig(circuit="C432", method="gscale", vdd_low=4.3,
                         slack_factor=1.2, rails=(5.0, 4.3, 3.6))
    assert msv.job_id == msv_job.job_id == "C432:gscale:r5-4.3-3.6:s1.2"
    assert flow_job_id("x", "cvs", 4.0, 1.1) == "x:cvs:v4:s1.1"


def test_ok_row_round_trip():
    artifact = _artifact(runtime_s=0.5)
    row = artifact.to_row()
    assert row["schema"] == SCHEMA_VERSION
    assert row["status"] == "ok"
    assert row["finished_at"] and row["worker_pid"]  # stamped at to_row
    back = RunArtifact.from_row(row)
    assert back.report == artifact.report
    assert back.to_row() == row  # second trip is bit-stable


def test_failed_row_round_trip():
    try:
        raise RuntimeError("injected")
    except RuntimeError as exc:
        artifact = RunArtifact.from_failure("C432", "dscale", exc,
                                            timeout=True, runtime_s=1.0)
    row = artifact.to_row()
    assert row["status"] == "failed"
    assert row["timeout"] is True
    assert "RuntimeError: injected" in row["error"]
    assert "Traceback" in row["traceback"]
    assert "report" not in row and "gates" not in row
    back = RunArtifact.from_row(row)
    assert not back.ok
    assert back.error == row["error"]


def test_ok_artifact_without_report_cannot_serialize():
    with pytest.raises(ValueError, match="ScalingReport"):
        _artifact(report=None).to_row()


def test_attempt_round_trips_and_defaults_to_first():
    row = _artifact(attempt=3).to_row()
    assert row["attempt"] == 3
    assert RunArtifact.from_row(row).attempt == 3
    # Pre-schema-4 rows carry no attempt field: first attempt.
    del row["attempt"]
    row["schema"] = 3
    assert RunArtifact.from_row(row).attempt == 1


def test_poisoned_artifact_round_trips_like_a_failure():
    from repro.api.artifact import STATUSES

    assert STATUSES == ("ok", "failed", "poisoned")
    try:
        raise OSError("worker died")
    except OSError as exc:
        artifact = RunArtifact.from_failure(
            "C432", "cvs", exc, attempt=3, status="poisoned"
        )
    row = artifact.to_row()
    assert row["status"] == "poisoned"
    assert row["attempt"] == 3
    assert "OSError: worker died" in row["error"]
    assert "report" not in row
    back = RunArtifact.from_row(row)
    assert not back.ok
    assert (back.status, back.attempt) == ("poisoned", 3)


def test_schema1_row_reads_as_classic_dual_vdd():
    row = _artifact().to_row()
    row["schema"] = 1
    del row["rails"]
    back = RunArtifact.from_row(row)
    assert back.rails == ()
    assert back.schema == 1
    assert back.to_row()["schema"] == SCHEMA_VERSION  # rewrite upgrades


def test_future_schema_rejected():
    row = _artifact().to_row()
    row["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="newer"):
        RunArtifact.from_row(row)


def test_artifacts_to_results_folds_by_circuit():
    artifacts = [
        _artifact(method="cvs", report=_report("cvs")),
        _artifact(method="gscale"),
        _artifact(circuit="pm1", method="cvs", gates=12,
                  report=_report("cvs")),
    ]
    results = {r.name: r for r in artifacts_to_results(artifacts)}
    assert set(results) == {"C432", "pm1"}
    assert set(results["C432"].reports) == {"cvs", "gscale"}
    assert results["pm1"].gates == 12


def test_artifacts_to_results_skips_failures_and_refreshes_scalars():
    try:
        raise ValueError("boom")
    except ValueError as exc:
        failed = RunArtifact.from_failure("C432", "cvs", exc)
    stale = _artifact(method="cvs", gates=39, report=_report("cvs"))
    fresh = _artifact(method="gscale", gates=41)
    (result,) = artifacts_to_results([failed, stale, fresh])
    assert set(result.reports) == {"cvs", "gscale"}
    assert result.gates == 41  # last artifact refreshes the scalars


def test_flow_artifact_row_is_store_compatible(library):
    """A Flow-produced artifact serializes to exactly the worker row."""
    from repro.flow.campaign import iter_group_rows
    from repro.flow.store import normalize_row

    config = FlowConfig(circuit="z4ml", method="cvs")
    flow = Flow(config, library=library)
    row = flow.run(prepared=flow.prepare()).to_row()
    ((job, reference),) = iter_group_rows([config])
    assert job is config
    assert normalize_row(row) == normalize_row(reference)
