"""The benchmark's tracer must be transparent.

A traced pass produces the same store rows as an untraced one, every
wrapped attribute is restored when tracing ends (also after an error),
and ``BENCHMARK.json`` names exactly the metrics the benchmark emits.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
for path in (ROOT / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import flowbench as fb  # noqa: E402
from repro.api.config import FlowConfig  # noqa: E402
from spans import Tracer, attribute_snapshot  # noqa: E402

TINY_MSV = "gen:layered:width=6:depth=5:seed=2"


def _workloads():
    return (
        fb.Workload("dual", FlowConfig(), (fb._dual_group("x2"),),
                    prepare_in_setup=False, gen_seed=None),
        fb.Workload("msv", FlowConfig(rails=fb.MSV_RAILS),
                    (fb._msv_group(TINY_MSV),),
                    prepare_in_setup=True, gen_seed=None),
    )


@pytest.mark.parametrize("workload", _workloads(), ids=lambda w: w.name)
def test_traced_rows_equal_untraced_rows(workload):
    setup = fb.set_up(workload, repeats=1)
    plain = fb.Checker(None)
    result = fb.run_pass(workload, setup, plain, random.Random(0))
    assert result.failures == []

    before = attribute_snapshot()
    traced = fb.Checker(None)
    with Tracer() as tracer:
        assert attribute_snapshot() != before
        result = fb.run_pass(workload, setup, traced, random.Random(1),
                             tracer)
    assert result.failures == []
    assert traced.rows == plain.rows
    assert attribute_snapshot() == before
    names = {span[0] for span in tracer.spans}
    assert {"stage.scale", "core.dscale", "core.gscale",
            "power.estimate"} <= names
    if workload.prepare_in_setup:
        assert "moves.try" in names
    else:
        assert {"stage.map", "mapping.cuts", "core.cvs"} <= names


def test_tracer_restores_after_an_error():
    before = attribute_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert attribute_snapshot() == before


def test_span_table_self_time_and_nesting():
    from spans import span_records, span_table

    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("a", 5.0, 7.0, 0)]
    table = span_table(span_records(spans))
    assert table["a"] == {"calls": 2, "total_s": 10.0, "self_s": 7.0}
    assert table["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        fb.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == fb.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(fb.WORKLOADS)
