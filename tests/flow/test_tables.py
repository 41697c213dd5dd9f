"""Table formatting / EXPERIMENTS.md rendering tests."""

import pytest

from repro.api import ScalingReport
from repro.flow.experiment import CircuitResult
from repro.flow.tables import (
    format_table1,
    format_table2,
    suite_averages,
    write_experiments_md,
)


def fake_report(method, improvement, low_ratio=0.5, resized=2,
                area=0.01):
    before = 100.0
    return ScalingReport(
        method=method,
        power_before_uw=before,
        power_after_uw=before * (1 - improvement / 100),
        improvement_pct=improvement,
        n_gates=100,
        n_low=int(100 * low_ratio),
        low_ratio=low_ratio,
        n_converters=3,
        n_resized=resized,
        area_increase_ratio=area,
        worst_delay_ns=10.0,
        tspec_ns=12.0,
        runtime_s=0.5,
    )


def fake_result(name, cvs, dscale, gscale):
    return CircuitResult(
        name=name, gates=100, org_power_uw=100.0,
        min_delay_ns=10.0, tspec_ns=12.0,
        reports={
            "cvs": fake_report("cvs", cvs, low_ratio=0.3),
            "dscale": fake_report("dscale", dscale, low_ratio=0.4),
            "gscale": fake_report("gscale", gscale, low_ratio=0.7),
        },
    )


@pytest.fixture()
def results():
    return [
        fake_result("C432", 0.0, 4.2, 13.8),
        fake_result("x3", 23.0, 23.8, 25.2),
    ]


def test_averages(results):
    averages = suite_averages(results)
    assert averages["cvs_pct"] == pytest.approx(11.5)
    assert averages["gscale_pct"] == pytest.approx(19.5)
    assert averages["gscale_ratio"] == pytest.approx(0.7)


def test_averages_empty():
    with pytest.raises(ValueError):
        suite_averages([])


def test_table1_contains_paper_comparison(results):
    text = format_table1(results)
    assert "C432" in text and "x3" in text
    # Paper's C432 row: 0.00 / 4.20 / 13.83.
    assert "4.20" in text and "13.83" in text
    assert "10.27" in text  # paper average in footer


def test_table1_without_comparison(results):
    text = format_table1(results, compare_paper=False)
    assert "paper" not in text


def test_table2_lists_profiles(results):
    text = format_table2(results)
    assert "0.30" in text and "0.70" in text
    assert "0.37" in text  # paper's average CVS ratio


def test_experiments_md_written(tmp_path, results):
    path = tmp_path / "EXPERIMENTS.md"
    text = write_experiments_md(results, str(path), preamble="subset run")
    assert path.exists()
    assert "subset run" in text
    assert "Table 1" in text and "Table 2" in text
    assert "| CVS improvement (%) | 10.27 |" in text


def test_tables_render_method_subset_with_dashes():
    """A store holding only one method (method-subset campaign or a
    cost-model filter) formats with dashes, not a KeyError."""
    from repro.api.artifact import CircuitResult, ScalingReport
    from repro.flow.tables import format_table1, format_table2

    report = ScalingReport(
        method="dscale", power_before_uw=10.0, power_after_uw=9.0,
        improvement_pct=10.0, n_gates=6, n_low=3, low_ratio=0.5,
        n_converters=1, n_resized=0, area_increase_ratio=0.0,
        worst_delay_ns=1.0, tspec_ns=1.2, runtime_s=0.0)
    result = CircuitResult(name="z4ml", gates=6, org_power_uw=10.0,
                           min_delay_ns=1.0, tspec_ns=1.2,
                           reports={"dscale": report})
    t1 = format_table1([result])
    assert "10.00" in t1 and "-" in t1
    t2 = format_table2([result])
    assert "0.50" in t2 and "-" in t2
