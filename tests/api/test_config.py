"""FlowConfig declaration and serialization round-trips."""

import json

import pytest

from repro.api import DEFAULT_SLACK_FACTOR, DEFAULT_VDD_LOW, FlowConfig
from repro.core.state import ScalingOptions


def test_defaults_match_the_paper():
    cfg = FlowConfig()
    assert cfg.method == "gscale"
    assert cfg.vdd_low == DEFAULT_VDD_LOW == 4.3
    assert cfg.slack_factor == DEFAULT_SLACK_FACTOR == 1.2
    assert cfg.max_iter == 10
    assert cfg.area_budget == 0.10
    assert cfg.materialize is False
    assert cfg.options == ScalingOptions()


def test_json_round_trip_is_exact():
    cfg = FlowConfig(circuit="C432", method="dscale", vdd_low=3.7,
                     slack_factor=1.4, max_iter=5, area_budget=0.02,
                     materialize=True,
                     options=ScalingOptions(lc_kind="cm", n_vectors=64))
    assert FlowConfig.loads(cfg.dumps()) == cfg


def test_json_round_trip_with_rails():
    cfg = FlowConfig(circuit="rot", rails=(5.0, 4.3, 3.6))
    again = FlowConfig.loads(cfg.dumps())
    assert again == cfg
    assert again.rails == (5.0, 4.3, 3.6)  # tuple restored, not list


def test_toml_round_trip_is_exact():
    cfg = FlowConfig(circuit="C880", method="cvs", rails=(1.8, 1.0, 0.6),
                     slack_factor=1.1,
                     options=ScalingOptions(activity_seed=7))
    assert FlowConfig.from_toml(cfg.to_toml()) == cfg


def test_toml_survives_exotic_floats():
    cfg = FlowConfig(options=ScalingOptions(timing_tolerance=1e-9,
                                            po_load=0.0))
    assert FlowConfig.from_toml(cfg.to_toml()) == cfg


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FlowConfig field"):
        FlowConfig.from_dict({"circuit": "C432", "voltage": 4.3})


def test_from_dict_rejects_unknown_option_fields():
    # ``incremental`` is a removed field: configs saved by older
    # versions get the same clean error, not a traceback.
    for options in ({"lc_kind": "pg", "bogus": 1}, {"incremental": True}):
        with pytest.raises(ValueError, match="unknown ScalingOptions field"):
            FlowConfig.from_dict({"options": options})


def test_options_dict_coerces_and_rails_normalize():
    cfg = FlowConfig(rails=[5, 4.3], options={"lc_kind": "cm"})
    assert cfg.rails == (5.0, 4.3)
    assert isinstance(cfg.options, ScalingOptions)
    assert cfg.options.lc_kind == "cm"


def test_rail_key_distinguishes_dual_and_msv():
    assert FlowConfig(vdd_low=4.0).rail_key == (4.0,)
    assert FlowConfig(rails=(5.0, 4.3, 3.6)).rail_key == (5.0, 4.3, 3.6)


def test_replace_returns_new_frozen_config():
    cfg = FlowConfig(circuit="C432")
    other = cfg.replace(method="cvs")
    assert other.method == "cvs" and cfg.method == "gscale"
    assert other.circuit == "C432"
    with pytest.raises(Exception):
        cfg.method = "dscale"  # frozen


def test_dumps_is_plain_json():
    data = json.loads(FlowConfig(circuit="pm1").dumps())
    assert data["circuit"] == "pm1"
    assert isinstance(data["rails"], list)
    assert isinstance(data["options"], dict)


def test_build_library_honors_rails():
    dual = FlowConfig(vdd_low=4.0).build_library()
    assert dual.rails == (5.0, 4.0)
    msv = FlowConfig(rails=(5.0, 4.3, 3.6)).build_library()
    assert msv.rails == (5.0, 4.3, 3.6)
