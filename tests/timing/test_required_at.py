"""Partial backward repair: ``IncrementalTiming.required_at`` and
``set_tspec`` against the rebuild-from-scratch oracle.

CVS and area recovery walk the netlist in reverse topological order
and write the state at the gates they pass, reading each gate's
required time from the engine on the way.  Every value the walk reads
must equal a full analysis of the live state bitwise, the engine must
equal it once the walk is done, and a CVS run must recompute no
required time twice.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath
from repro.core.cvs import run_cvs
from repro.core.state import ScalingOptions, ScalingState
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.timing.delay import OUTPUT, DelayCalculator
from repro.timing.incremental import IncrementalTiming
from repro.timing.sta import TimingAnalysis

RAILS = {
    2: (5.0, 4.3),
    3: (5.0, 4.3, 3.6),
    4: (5.0, 4.3, 3.6, 3.0),
}


def _prepare(n_rails):
    """A library whose shifter pin cap differs per destination rail,
    and one circuit prepared on it."""
    library = build_compass_library(rails=RAILS[n_rails])
    for rail, vdd in enumerate(library.rails[:-1]):
        cell = library.level_converter("pg", vdd)
        library.add(
            dataclasses.replace(
                cell,
                name=f"{cell.name}_skew",
                size=-1,
                input_caps=(cell.input_caps[0] * (1.0 + (rail + 1) / 7),),
            )
        )
    flow = Flow(FlowConfig(), library=library, match_table=MatchTable(library))
    circuit = mixed_datapath(width=5, n_control=3, n_products=8, seed=29)
    return library, flow.prepare(circuit)


@pytest.fixture(scope="module")
def prepared():
    """``(library, prepared circuit)`` per rail count."""
    return {n_rails: _prepare(n_rails) for n_rails in RAILS}


def _dense_state(library, circuit, lc_at_outputs, rng):
    """A timed state with shifters on output, input and PO edges."""
    state = ScalingState(
        circuit.network,
        library,
        tspec=2.5 * circuit.tspec,
        activity=circuit.activity,
        options=ScalingOptions(lc_at_outputs=lc_at_outputs),
    )
    lowest = state.n_rails - 1
    gates = state.network.gates()
    for name in rng.sample(gates, k=len(gates) * 2 // 5):
        state.demote(name, target=rng.randint(1, lowest))
    state.timing()
    return state


def _write(rng, state, name):
    """One random write at gate ``name``: a demote, promote or resize,
    or dropping or adding one of its converters.  Every load and
    required-time seed it makes sits at or before ``name``'s position."""
    network = state.network
    rail = state.rail_of(name)
    kinds = ["resize"]
    if rail < state.n_rails - 1:
        kinds.append("demote")
    if rail:
        kinds.append("promote")
    if state.converter_readers(name):
        kinds.append("drop")
    readers = list(network.fanouts(name))
    if name in network.outputs:
        readers.append(OUTPUT)
    plain = [r for r in readers if (name, r) not in state.lc_edges]
    if plain:
        kinds.append("add")
    kind = rng.choice(kinds)
    if kind == "resize":
        variants = state.library.variants(state.cell(name).base)
        state.resize(name, rng.choice(variants))
    elif kind == "demote":
        state.demote(name, target=rng.randint(rail + 1, state.n_rails - 1))
    elif kind == "promote":
        state.promote(name)
    elif kind == "drop":
        reader = rng.choice(state.converter_readers(name))
        state.drop_converter((name, reader))
    else:
        state.add_converter((name, rng.choice(plain)))


def _assert_arrays_are_oracle(engine, oracle):
    order, arrival, required, load = engine.levelized_arrays()
    assert load == [oracle.load[name] for name in order]
    assert arrival == [oracle.arrival[name] for name in order]
    assert required == [oracle.required[name] for name in order]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_rails=st.sampled_from(sorted(RAILS)),
    lc_at_outputs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_reads_the_oracle_required_times(
    prepared, n_rails, lc_at_outputs, seed
):
    """A reverse walk writing at the gates it passes reads every
    required time bitwise equal to a full analysis of the live state."""
    rng = random.Random(seed)
    state = _dense_state(*prepared[n_rails], lc_at_outputs, rng)
    engine = state.timing()
    gates = state.network.gates()
    for name in rng.sample(gates, k=3):  # seeds all over the network
        _write(rng, state, name)
    oracle = None
    writes = 0
    for name in reversed(state.network.topological()):
        if oracle is None:
            oracle = state.full_timing()
        assert engine.required_at(name) == oracle.required[name], name
        if not state.network.nodes[name].is_input and rng.random() < 0.3:
            _write(rng, state, name)
            writes += 1
            oracle = None
    assert writes
    _assert_arrays_are_oracle(engine, state.full_timing())


@pytest.mark.parametrize("slack", [1.0, 1.2])
def test_set_tspec_retimes_required_times(prepared, slack):
    """An engine built at budget 0, as prepare builds one, reads the
    required times of a new budget after ``set_tspec``."""
    library, circuit = prepared[2]
    network = circuit.network
    engine = IncrementalTiming(
        DelayCalculator(network, library, cache=True), 0.0
    )
    engine.levelized_arrays()
    tspec = slack * circuit.tspec
    engine.set_tspec(tspec)
    oracle = TimingAnalysis(DelayCalculator(network, library), tspec)
    for name in reversed(network.topological()):
        assert engine.required_at(name) == oracle.required[name], name
    assert engine.tspec == tspec
    _assert_arrays_are_oracle(engine, oracle)


def test_cvs_recomputes_each_required_time_at_most_once(
    monkeypatch, prepared
):
    """One 2-rail CVS run and the full repair after it recompute each
    position's required time at most once."""
    library, circuit = prepared[2]
    state = ScalingState(
        circuit.network,
        library,
        tspec=circuit.tspec,
        activity=circuit.activity,
    )
    calls = Counter()
    compute = IncrementalTiming._compute_required

    def counted(engine, name):
        calls[name] += 1
        return compute(engine, name)

    monkeypatch.setattr(IncrementalTiming, "_compute_required", counted)
    assert run_cvs(state).demoted
    _assert_arrays_are_oracle(state.timing(), state.full_timing())
    assert calls
    assert max(calls.values()) == 1
