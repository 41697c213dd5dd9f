"""Batched closed-form pricing over the levelized timing arrays.

One Dscale round asks the same three questions for every candidate in
the slack set: is the demotion feasible right now (the closed-form
antichain check), what does it save (the eq. (1) gain), and -- for
Gscale -- what does a one-step upsize cost.  The serial loops answer
them one gate at a time through the method-call surface of
:class:`~repro.timing.delay.DelayCalculator`, re-deriving the reader
pin capacitances and rail assignments per query; this module answers
them for a whole batch at once.

Two layers make that fast.  The shared
:class:`~repro.netlist.flat.FlatNetwork` snapshot -- cached on the
state and invalidated only by cell resizes or topology revisions --
freezes everything that does not change between moves into flat
CSR-style arrays: fanin pin rows, reader pin rows, fanout edge rows
with pre-summed pin capacitances, and the per-rail twin constants
(intrinsics, drive resistance, internal energy) of every gate.  (The
snapshot used to be private to this module; it now also powers the
vectorized full builds in :mod:`repro.timing.incremental` and the
flat power/candidate paths in :mod:`repro.core` -- one CSR build per
state instead of one per layer.)  Each sweep then overlays
the things that do change (rail assignments, the timing arrays) and
the per-candidate arithmetic becomes elementwise NumPy array math plus
segmented reductions over the flat levelized arrays of
:class:`~repro.timing.incremental.IncrementalTiming`.

The vectorized kernels are **bit-identical** to the serial
per-candidate loops they replace:

* every float expression replicates the serial association exactly
  (``(a + e) + (i + r*l)``, ``req - (i + r*l)``, ...);
* cross-edge max and AND reductions are order-free over IEEE doubles;
* order-sensitive accumulations (net-change capacitance sums, the
  per-rail converter loads, the per-shifter gain subtractions) run
  through ``np.add.at`` / ``np.subtract.at``, which apply strictly in
  row order -- and the rows are emitted in the *same*
  ``network.fanouts`` set order the serial
  :meth:`DelayCalculator.demotion_net_change` iterates, with pin caps
  pre-summed in the same ascending-pin order;
* candidates the vector kernels do not model exactly -- gates already
  carrying level shifters on their output or input edges -- fall back
  per candidate: the feasibility check to :class:`_LcEdgeFallback`,
  the serial check arithmetic restated over one per-call snapshot of
  the state, and the gains to the serial
  :func:`~repro.power.estimate.demotion_gain` itself.

The hypothesis suites in ``tests/core/test_moves.py`` pin every path
against the serial loops.

This module sits in the timing layer: it imports nothing from
``repro.core`` and duck-types the state (``calc`` / ``network`` /
``levels`` / ``lc_edges`` / ``options`` / ``tspec`` / ``activity`` /
``rails``) so the move engine above can delegate to it without an
import cycle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.netlist.flat import FlatNetwork, csr_take as _csr_take, flat_of
from repro.power.estimate import demotion_gain
from repro.timing.delay import OUTPUT

_UW = 1e-3
"""fF * V^2 * MHz to uW -- the same conversion as repro.power.estimate."""


def _flat_timing(static: FlatNetwork, analysis):
    """``(arrival, required, load)`` as position-aligned float arrays."""
    arrays = getattr(analysis, "levelized_arrays", None)
    if arrays is not None:
        order, arrival, required, load = arrays()
        if order == static.order:
            return np.asarray(arrival), np.asarray(required), np.asarray(load)
    arrival, required, load = (
        analysis.arrival, analysis.required, analysis.load
    )
    order = static.order
    return (
        np.asarray([arrival[name] for name in order]),
        np.asarray([required[name] for name in order]),
        np.asarray([load[name] for name in order]),
    )


class _NetVectors:
    """Vectorized ``demotion_net_change`` + post-demotion delays.

    ``first_ci`` / ``first_rail`` list each candidate's new converter
    groups in first-seen (fanout) order -- the serial
    ``converter_loads`` dict insertion order -- for order-faithful
    per-group accumulation downstream.  ``po_new`` marks candidates
    whose PO shifter created a fresh rail-0 group (inserted *last*).
    """

    __slots__ = (
        "load_after", "loads_mat", "delay_mat", "po", "po_new",
        "first_ci", "first_rail",
    )


def _net_vectors(static, rails_arr, cp, tg, lc_at_outputs) -> _NetVectors:
    m = len(cp)
    n_rails = static.n_rails
    rows, ci, _ = _csr_take(static.e_ptr, cp)
    reader = static.e_reader[rows]
    cap = static.e_cap[rows]
    rrail = rails_arr[reader]
    direct = rrail >= tg[ci]

    # np.add.at applies strictly in row order == fanouts order, so
    # every per-candidate capacitance sum matches the serial bits.
    direct_cap = np.zeros(m)
    direct_cnt = np.zeros(m, dtype=np.intp)
    di = np.flatnonzero(direct)
    np.add.at(direct_cap, ci[di], cap[di])
    np.add.at(direct_cnt, ci[di], 1)

    loads_mat = np.zeros((m, n_rails))
    cnt_mat = np.zeros((m, n_rails), dtype=np.intp)
    vi = np.flatnonzero(~direct)
    cvi = ci[vi]
    rvi = rrail[vi]
    np.add.at(loads_mat, (cvi, rvi), cap[vi])
    np.add.at(cnt_mat, (cvi, rvi), 1)
    # First row of each (candidate, rail) group, kept in row order:
    # the group's position in the serial converter_loads dict.
    _, first = np.unique(cvi * n_rails + rvi, return_index=True)
    first.sort()
    first_ci = cvi[first]
    first_rail = rvi[first]

    po = static.is_po[cp]
    po_new = None
    if lc_at_outputs:
        po_new = po & (cnt_mat[:, 0] == 0)
        loads_mat[po, 0] += static.po_load
        cnt_mat[po, 0] += 1
    else:
        direct_cap[po] += static.po_load
        direct_cnt[po] += 1

    conn = direct_cnt + (cnt_mat > 0).sum(axis=1)
    load_after = direct_cap + np.where(
        conn <= 0, 0.0, static.wire_base + static.wire_per * conn
    )
    # Shifter input caps join in all_rails order: new groups in
    # first-seen fanout order, then a PO-created rail-0 group last.
    np.add.at(load_after, first_ci, static.lc_icap[first_rail])
    if lc_at_outputs:
        load_after[po_new] += static.lc_icap[0]

    delay_mat = static.lc_intr + static.lc_res * (0.0 + loads_mat)

    out = _NetVectors()
    out.load_after = load_after
    out.loads_mat = loads_mat
    out.delay_mat = delay_mat
    out.po = po
    out.po_new = po_new
    out.first_ci = first_ci
    out.first_rail = first_rail
    return out


def _split_candidates(state, static, candidates, fallback_names):
    """Normalize targets, validate, and split vector vs fallback.

    Validation mirrors the serial :meth:`demotion_net_change` (and
    :func:`~repro.power.estimate.demotion_gain`) messages exactly.
    Returns ``(vec_k, vec_pos, vec_tgt, vec_names, fallback)`` with
    ``fallback`` as ``(k, name, target)`` triples.
    """
    pos = static.pos
    n_rails = static.n_rails
    level_of = state.levels.get
    vec_k: list[int] = []
    vec_pos: list[int] = []
    vec_tgt: list[int] = []
    vec_names: list[str] = []
    fallback: list[tuple[int, str, int]] = []
    for k, (name, target) in enumerate(candidates):
        rail = int(level_of(name, 0) or 0)
        if target is None:
            target = rail + 1
        if target >= n_rails:
            raise ValueError(f"{name!r} is already at the lowest rail")
        if target <= rail:
            raise ValueError(
                f"demotion target {target} must sit below {name!r}'s "
                f"current rail {rail}"
            )
        if name in fallback_names:
            fallback.append((k, name, target))
        else:
            vec_k.append(k)
            vec_pos.append(pos[name])
            vec_tgt.append(target)
            vec_names.append(name)
    return vec_k, vec_pos, vec_tgt, vec_names, fallback


# ---------------------------------------------------------------------
# The lc-edge fallback of the feasibility check
# ---------------------------------------------------------------------


class _LcEdgeFallback:
    """The serial check for candidates already carrying level shifters.

    The vector kernel does not model a candidate with a shifter on its
    output or on a fanin edge; :func:`check_demotions` prices those
    here, one candidate at a time, with the serial arithmetic restated
    over snapshot tables.  The state must not mutate while a fallback
    is alive -- the rail table, converter-edge set, and pin-cap tables
    are snapshots, which is exactly what makes them cheap to consult
    per edge.  Each :func:`check_demotions` call builds its own.
    """

    __slots__ = (
        "calc", "network", "nodes", "reader_pins", "outputs",
        "rails_of", "lc_set", "lc_drivers", "lc_at_outputs", "po_load",
        "wire_cap", "lc_intr", "lc_res", "lc_input_cap", "tolerance",
        "tspec", "_caps",
    )

    def __init__(self, state):
        calc = state.calc
        network = state.network
        self.calc = calc
        self.network = network
        self.nodes = network.nodes
        self.reader_pins = network.reader_pins()
        self.outputs = network.outputs
        # rail_of(name) == int(levels.get(name, 0) or 0): default every
        # node to the high rail, then overlay the recorded levels.
        rails_of = dict.fromkeys(network.nodes, 0)
        for name, level in state.levels.items():
            rails_of[name] = int(level or 0)
        self.rails_of = rails_of
        self.lc_set = frozenset(state.lc_edges)
        self.lc_drivers = frozenset(d for d, _ in self.lc_set)
        self.lc_at_outputs = state.options.lc_at_outputs
        self.po_load = calc.po_load
        self.wire_cap = state.library.wire_model.cap
        self.tolerance = state.options.timing_tolerance
        self.tspec = state.tspec
        # Shifter cells per destination rail, unpacked for inline
        # pin_delay(0, load) == intrinsics[0] + drive_res * load.
        self.lc_intr = {}
        self.lc_res = {}
        self.lc_input_cap = {}
        for rail in range(max(1, calc.n_rails - 1)):
            cell = calc.lc_cell_for(rail)
            self.lc_intr[rail] = cell.intrinsics[0]
            self.lc_res[rail] = cell.drive_res
            self.lc_input_cap[rail] = cell.input_caps[0]
        self._caps: dict[str, dict[str, float]] = {}

    def caps_of(self, driver: str) -> dict[str, float]:
        """Per-reader pin capacitance on ``driver``'s net, memoized.

        Accumulates each reader's matching pins in ascending pin order
        (the ``reader_pins`` table lists one reader's pins
        consecutively), the same order
        :meth:`DelayCalculator.reader_pin_cap` sums them -- same bits.
        """
        caps = self._caps.get(driver)
        if caps is None:
            caps = {}
            nodes = self.nodes
            for reader, pin in self.reader_pins[driver]:
                caps[reader] = (
                    caps.get(reader, 0.0)
                    + nodes[reader].cell.input_caps[pin]
                )
            self._caps[driver] = caps
        return caps

    def net_profile(
        self, name: str, target: int
    ) -> tuple[float, dict[int, float]]:
        """``(load_after, converter_delays)`` of a validated demotion.

        A restatement of :meth:`DelayCalculator.demotion_net_change`
        followed by :meth:`~DelayCalculator.post_demotion_converter_delays`
        over the snapshot tables.  Iterates the same ``fanouts`` set in
        the same order, so every capacitance sum and every converter
        group carries the serial bits.
        """
        rails_of = self.rails_of
        lc_set = self.lc_set
        rail = rails_of[name]
        caps = self.caps_of(name)
        fanouts = self.network.fanouts(name)
        has_shifters = name in self.lc_drivers
        direct_cap = 0.0
        direct_count = 0
        converter_loads: dict[int, float] = {}
        kept_rails: list[int] = []
        for reader in fanouts:
            if has_shifters and (name, reader) in lc_set:
                kept = min(rails_of[reader], target - 1)
                kept = kept if kept > 0 else 0
                if kept not in kept_rails:
                    kept_rails.append(kept)
                continue
            reader_rail = rails_of[reader]
            if reader_rail >= target:
                direct_cap += caps[reader]
                direct_count += 1
            else:
                converter_loads[reader_rail] = (
                    converter_loads.get(reader_rail, 0.0) + caps[reader]
                )
        is_output = name in self.outputs
        if is_output:
            if has_shifters and (name, OUTPUT) in lc_set:
                if 0 not in kept_rails:
                    kept_rails.append(0)
            elif self.lc_at_outputs:
                converter_loads[0] = (
                    converter_loads.get(0, 0.0) + self.po_load
                )
            else:
                direct_cap += self.po_load
                direct_count += 1

        all_rails = list(kept_rails)
        for conv_rail in converter_loads:
            if conv_rail not in all_rails:
                all_rails.append(conv_rail)
        load_after = direct_cap + self.wire_cap(
            direct_count + len(all_rails)
        )
        for conv_rail in all_rails:
            load_after += self.lc_input_cap[conv_rail]

        # Post-demotion shifter delays: each new group merges into any
        # kept shifter of the same destination rail, priced at the
        # combined output load (post_demotion_converter_delays).
        lc_intr = self.lc_intr
        lc_res = self.lc_res
        if not has_shifters:
            converter_delays = {
                conv_rail: lc_intr[conv_rail]
                + lc_res[conv_rail] * (0.0 + load)
                for conv_rail, load in converter_loads.items()
            }
        else:
            # The slow path: the driver carries shifters today, so the
            # kept groups' current readers join the load (lc_load at
            # the pre-demotion converter_rail).
            driver_cap = rail - 1
            converted: list[tuple[str, int]] = []
            group_rails: set[int] = set()
            for reader in fanouts:
                if (name, reader) in lc_set:
                    current = min(rails_of[reader], driver_cap)
                    current = current if current > 0 else 0
                    converted.append((reader, current))
                    group_rails.add(current)
            if is_output and (name, OUTPUT) in lc_set:
                converted.append((OUTPUT, 0))
                group_rails.add(0)
            converter_delays = {}
            for conv_rail in group_rails | set(converter_loads):
                load = 0.0
                if conv_rail in group_rails:
                    for reader, current in converted:
                        if current != conv_rail:
                            continue
                        if reader == OUTPUT:
                            load += self.po_load
                        else:
                            load += caps[reader]
                load += converter_loads.get(conv_rail, 0.0)
                converter_delays[conv_rail] = (
                    lc_intr[conv_rail] + lc_res[conv_rail] * load
                )
        return load_after, converter_delays

    def _reader_edge_rows(self, name, target, converter_delays):
        """Yield ``(extra, reader, pin)`` per fanout pin of ``name``.

        ``extra`` is the post-demotion shifter delay charged on the
        edge: the merged group's delay for edges that keep or gain a
        shifter, 0.0 for readers staying directly on the (lower-swing)
        net.  A new edge appears exactly where the reader's rail sits
        below the demotion target and no shifter exists yet -- the same
        classification ``demotion_net_change`` recorded.
        """
        rails_of = self.rails_of
        lc_set = self.lc_set
        has_shifters = name in self.lc_drivers
        driver_rail = rails_of[name]
        prev_reader = None
        extra = 0.0
        for reader, pin in self.reader_pins[name]:
            if reader != prev_reader:
                prev_reader = reader
                if has_shifters and (name, reader) in lc_set:
                    # Existing shifter: priced at its *current*
                    # destination rail (converter_rail of the
                    # pre-demotion state).
                    current = min(rails_of[reader], driver_rail - 1)
                    extra = converter_delays[current if current > 0 else 0]
                elif rails_of[reader] < target:
                    extra = converter_delays[rails_of[reader]]
                else:
                    extra = 0.0
            yield extra, reader, pin

    def check(self, analysis, candidates) -> list[bool]:
        """Feasibility of validated ``(name, target)`` demotions."""
        calc = self.calc
        nodes = self.nodes
        lc_set = self.lc_set
        tolerance = self.tolerance
        arrival = analysis.arrival
        required = analysis.required
        load = analysis.load
        variant = calc.variant

        results: list[bool] = []
        for name, target in candidates:
            load_after, converter_delays = self.net_profile(name, target)
            low_cell = calc.rail_variant_of(nodes[name].cell, target)
            intrinsics = low_cell.intrinsics
            stage = low_cell.drive_res * load_after
            out_arrival = 0.0
            for pin, fanin in enumerate(nodes[name].fanins):
                if (fanin, name) in lc_set:
                    at_pin = arrival[fanin] + calc.lc_delay(fanin, name)
                else:
                    at_pin = arrival[fanin] + 0.0
                at_pin += intrinsics[pin] + stage
                if at_pin > out_arrival:
                    out_arrival = at_pin
            ok = True
            prev_reader = None
            reader_stage = reader_req = 0.0
            reader_intr: tuple[float, ...] = ()
            for extra, reader, pin in self._reader_edge_rows(
                name, target, converter_delays
            ):
                if reader != prev_reader:
                    prev_reader = reader
                    reader_cell = variant(reader)
                    reader_intr = reader_cell.intrinsics
                    reader_stage = reader_cell.drive_res * load[reader]
                    reader_req = required[reader]
                deadline = reader_req - (reader_intr[pin] + reader_stage)
                if out_arrival + extra > deadline + tolerance:
                    ok = False
                    break
            if ok and name in self.outputs:
                if (name, OUTPUT) in lc_set or self.lc_at_outputs:
                    extra = converter_delays[0]
                else:
                    extra = 0.0
                if out_arrival + extra > self.tspec + tolerance:
                    ok = False
            results.append(ok)
        return results


# ---------------------------------------------------------------------
# Demotion feasibility (the closed-form antichain check, batched)
# ---------------------------------------------------------------------


def check_demotions(
    state, analysis, candidates: Sequence[tuple[str, int | None]]
) -> list[bool]:
    """Feasibility of each ``(name, target)`` demotion, batched.

    Bit-identical to calling ``repro.core.dscale.check_demotion`` once
    per candidate against the same analysis: same net change, same
    surviving-shifter delays, same per-edge deadline comparisons.
    ``target=None`` checks the classic one-rail step.
    """
    if not candidates:
        return []
    static = flat_of(state)
    # Shifter-carrying candidates (kept output shifters, or a converter
    # on an input edge) need the exact per-candidate treatment.
    fallback_names: set[str] = set()
    for driver, reader in state.lc_edges:
        fallback_names.add(driver)
        if reader != OUTPUT:
            fallback_names.add(reader)
    vec_k, vec_pos, vec_tgt, _, fallback = _split_candidates(
        state, static, candidates, fallback_names
    )

    ok = [True] * len(candidates)
    if vec_k:
        rails_arr = static.rail_plane(state.levels)
        arrival, required, load = _flat_timing(static, analysis)
        cp = np.asarray(vec_pos, dtype=np.intp)
        tg = np.asarray(vec_tgt, dtype=np.intp)
        flags = _check_vec(
            state, static, rails_arr, arrival, required, load, cp, tg
        )
        for k, flag in zip(vec_k, flags):
            ok[k] = flag
    if fallback:
        sub = [(name, target) for _, name, target in fallback]
        flags = _LcEdgeFallback(state).check(analysis, sub)
        for (k, _, _), flag in zip(fallback, flags):
            ok[k] = flag
    return ok


def _check_vec(state, static, rails_arr, arrival, required, load, cp, tg):
    m = len(cp)
    options = state.options
    tolerance = options.timing_tolerance
    net = _net_vectors(static, rails_arr, cp, tg, options.lc_at_outputs)

    # Post-demotion output arrival: (arrival + 0.0) + (intr + res*load)
    # per fanin pin, max-reduced per candidate with the serial 0.0 seed
    # (max is order-free, so the segmented reduction carries the same
    # bits as the serial scan).
    stage_after = static.drive[tg, cp] * net.load_after
    rows, owner, counts = _csr_take(static.fi_ptr, cp)
    at_pin = (arrival[static.fi_src[rows]] + 0.0) + (
        static.fi_intr[tg[owner], rows] + stage_after[owner]
    )
    if len(rows) and counts.min() > 0:
        offsets = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        out_arrival = np.maximum(np.maximum.reduceat(at_pin, offsets), 0.0)
    else:  # a zero-fanin candidate (constant gate): scatter-max instead
        out_arrival = np.zeros(m)
        np.maximum.at(out_arrival, owner, at_pin)

    ok = np.ones(m, dtype=bool)
    rows, owner, _ = _csr_take(static.rp_ptr, cp)
    if len(rows):
        reader = static.rp_reader[rows]
        rrail = rails_arr[reader]
        is_new = rrail < tg[owner]
        extra = np.where(is_new, net.delay_mat[owner, rrail], 0.0)
        lhs = out_arrival[owner] + extra
        deadline = required[reader] - (
            static.rp_intr[rrail, rows]
            + static.drive[rrail, reader] * load[reader]
        )
        ok[owner[lhs > deadline + tolerance]] = False
    po_idx = np.flatnonzero(net.po)
    if len(po_idx):
        if options.lc_at_outputs:
            lhs = out_arrival[po_idx] + net.delay_mat[po_idx, 0]
        else:
            lhs = out_arrival[po_idx] + 0.0
        ok[po_idx[lhs > state.tspec + tolerance]] = False
    return ok.tolist()


# ---------------------------------------------------------------------
# Demotion gains (the eq. (1) paper arithmetic, batched)
# ---------------------------------------------------------------------


def demotion_gains(
    state, candidates: Sequence[tuple[str, int | None]]
) -> list[float]:
    """Paper-model power gain (uW) of each demotion, batched.

    Bit-identical to calling :func:`repro.power.estimate.demotion_gain`
    once per candidate: the net re-swing and internal-energy terms are
    computed elementwise (same float association as the serial
    expression), and the order-sensitive per-shifter subtraction runs
    in the same first-seen group order the serial loop walks.
    Candidates that already drive level shifters are priced by the
    serial function itself.
    """
    if not candidates:
        return []
    static = flat_of(state)
    pos = static.pos
    is_input = static.is_input
    for name, _ in candidates:
        if is_input[pos[name]]:
            raise ValueError("primary inputs cannot be demoted")
    # Only kept output shifters perturb a candidate's net profile; a
    # converter on an input edge does not enter the gain arithmetic.
    fallback_names = {driver for driver, _ in state.lc_edges}
    vec_k, vec_pos, vec_tgt, vec_names, fallback = _split_candidates(
        state, static, candidates, fallback_names
    )

    options = state.options
    gains = [0.0] * len(candidates)
    if vec_k:
        rails_arr = static.rail_plane(state.levels)
        cp = np.asarray(vec_pos, dtype=np.intp)
        tg = np.asarray(vec_tgt, dtype=np.intp)
        net = _net_vectors(
            static, rails_arr, cp, tg, options.lc_at_outputs
        )
        calc_load = state.calc.load
        load_before = np.asarray([calc_load(name) for name in vec_names])
        rate = static.a01[cp] * options.clock_mhz
        source = rails_arr[cp]
        rails_v = static.rails_v
        vdd_before = rails_v[source]
        vdd_after = rails_v[tg]
        vec = rate * (
            (load_before * vdd_before * vdd_before)
            - (net.load_after * vdd_after * vdd_after)
        ) * _UW
        vec = vec + rate * (
            static.energy[source, cp] - static.energy[tg, cp]
        ) * _UW
        # One subtraction per new shifter group, applied in the serial
        # converter_loads insertion order (np.subtract.at is strictly
        # sequential over the first-seen rows; a PO-created rail-0
        # group was inserted last).
        first_ci = net.first_ci
        first_rail = net.first_rail
        if len(first_ci):
            lc_vdd = rails_v[first_rail]
            term = rate[first_ci] * (
                static.lc_ie[first_rail]
                + net.loads_mat[first_ci, first_rail] * lc_vdd * lc_vdd
            ) * _UW
            np.subtract.at(vec, first_ci, term)
        if options.lc_at_outputs:
            po_new = np.flatnonzero(net.po_new)
            if len(po_new):
                lc_vdd = rails_v[0]
                term = rate[po_new] * (
                    static.lc_ie[0]
                    + net.loads_mat[po_new, 0] * lc_vdd * lc_vdd
                ) * _UW
                vec[po_new] = vec[po_new] - term
        for k, value in zip(vec_k, vec.tolist()):
            gains[k] = value
    for k, name, target in fallback:
        gains[k] = demotion_gain(
            state.calc,
            state.activity,
            name,
            clock_mhz=options.clock_mhz,
            lc_at_outputs=options.lc_at_outputs,
            target=target,
        )
    return gains


# ---------------------------------------------------------------------
# Resize profiles (Gscale's upsize pricing, batched)
# ---------------------------------------------------------------------


def resize_profiles(
    state, names: Sequence[str]
) -> list[tuple[float, float, float] | None]:
    """One-step upsize profile per gate, batched.

    Bit-identical to ``repro.core.gscale.resize_profile`` per name:
    ``(area penalty, net timing gain, worst driver penalty)`` with the
    own-stage improvement vectorized (``max_delay`` is affine in the
    load) and ``None`` where no larger variant exists.
    """
    if not names:
        return []
    calc = state.calc
    network = state.network
    library = state.library

    results: list[tuple[float, float, float] | None] = [None] * len(names)
    idx: list[int] = []
    intr_cur: list[float] = []
    res_cur: list[float] = []
    intr_up: list[float] = []
    res_up: list[float] = []
    loads: list[float] = []
    penalties: list[float] = []
    areas: list[float] = []
    for k, name in enumerate(names):
        node = network.nodes[name]
        candidate = None
        for variant in library.variants(node.cell.base):
            if variant.size == node.cell.size + 1:
                candidate = variant
                break
        if candidate is None:
            continue
        current = calc.variant(name)
        upsized = calc.rail_variant_of(candidate, state.rail_of(name))
        driver_penalty = 0.0
        for pin, fanin in enumerate(node.fanins):
            driver = network.nodes[fanin]
            if driver.is_input:
                continue  # inputs are ideal drivers in this model
            delta_cap = (
                candidate.input_caps[pin] - node.cell.input_caps[pin]
            )
            penalty = calc.variant(fanin).drive_res * delta_cap
            driver_penalty = max(driver_penalty, penalty)
        idx.append(k)
        intr_cur.append(max(current.intrinsics))
        res_cur.append(current.drive_res)
        intr_up.append(max(upsized.intrinsics))
        res_up.append(upsized.drive_res)
        loads.append(calc.load(name))
        penalties.append(driver_penalty)
        areas.append(candidate.area - node.cell.area)

    if not idx:
        return results
    load_arr = np.asarray(loads)
    own_gain = (np.asarray(intr_cur) + np.asarray(res_cur) * load_arr) - (
        np.asarray(intr_up) + np.asarray(res_up) * load_arr
    )
    net_gains = (own_gain - np.asarray(penalties)).tolist()
    for j, k in enumerate(idx):
        results[k] = (areas[j], net_gains[j], penalties[j])
    return results


__all__ = [
    "check_demotions",
    "demotion_gains",
    "resize_profiles",
]
