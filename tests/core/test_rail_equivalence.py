"""Dual-rail equivalence regression suite.

The N-rail generalization must leave the paper reproduction untouched:
with ``rails=(vdd_high, vdd_low)`` every algorithm, the power model,
and the formatted tables have to be *bit-identical* to the seed
dual-Vdd implementation.  The anchor is ``tests/golden/dual_rail_mcnc.json``,
generated from the pre-refactor seed by ``tools/make_dual_rail_golden.py``
on an MCNC subset: Table 1 / Table 2 strings plus, per (circuit,
method), the exact powers, worst delay/slack, converter count, and the
full low-node / converter-edge assignment.

The collection loop is ``collect()`` from that tool, so the check and
the generator cannot drift apart; one test pins that the tool's output
reproduces the committed file byte for byte.  Two library constructions
are checked against the same golden:

* the classic ``build_compass_library()`` (the default dual-Vdd path),
* the explicit rail API ``build_compass_library(rails=(5.0, 4.3))``.

Any drift here is a change to the paper reproduction's numbers and must
be an intentional, reviewed regeneration of the golden file.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.library.compass import build_compass_library

_HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(_HERE, "..", "golden", "dual_rail_mcnc.json")
TOOL_PATH = os.path.join(
    _HERE, "..", "..", "tools", "make_dual_rail_golden.py"
)


def _load_tool():
    """The golden tool as a module (``tools/`` is not a package)."""
    spec = importlib.util.spec_from_file_location("make_dual_rail_golden",
                                                  TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


collect = _load_tool().collect


@pytest.fixture(scope="module")
def golden_text():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def golden(golden_text):
    return json.loads(golden_text)


@pytest.fixture(scope="module")
def classic_run(golden):
    return collect(golden["circuits"], build_compass_library())


@pytest.fixture(scope="module", params=["classic", "rails"])
def measured(request, golden):
    """Golden subset re-run through one of the two library paths."""
    if request.param == "classic":
        return request.getfixturevalue("classic_run")
    return collect(golden["circuits"], build_compass_library(rails=(5.0, 4.3)))


def test_golden_tool_reproduces_committed_file(golden_text, classic_run):
    """The tool's output for the classic library is the committed file."""
    text = json.dumps(classic_run, indent=1, sort_keys=True) + "\n"
    assert text == golden_text


def test_rails_pair_reduces_to_dual_library():
    """rails=(high, low) builds the exact dual-Vdd cell inventory."""
    classic = build_compass_library()
    railed = build_compass_library(rails=(5.0, 4.3))
    assert railed.rails == classic.rails == (5.0, 4.3)
    assert sorted(railed.cells) == sorted(classic.cells)
    for name, cell in classic.cells.items():
        assert railed.cells[name] == cell, name


def test_table1_bit_identical_to_seed(golden, measured):
    assert measured["table1"] == golden["table1"]


def test_table2_bit_identical_to_seed(golden, measured):
    assert measured["table2"] == golden["table2"]


def test_per_run_rows_bit_identical_to_seed(golden, measured):
    runs = measured["runs"]
    assert set(runs) == set(golden["runs"])
    for key, want in golden["runs"].items():
        got = runs[key]
        assert set(got) == set(want), key
        for field, value in want.items():
            # json round-trips floats exactly (repr-based), so plain
            # equality *is* the bit-identity check.
            assert got[field] == value, (key, field)


def test_assignments_bit_identical_to_seed(golden, measured):
    """The full per-gate decision, not just its aggregates."""
    runs = measured["runs"]
    for key, want in golden["runs"].items():
        assert runs[key]["low_nodes"] == want["low_nodes"], key
        assert runs[key]["lc_edges"] == want["lc_edges"], key
