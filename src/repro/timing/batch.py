"""Batched closed-form pricing over the levelized timing arrays.

One Dscale round asks the same two questions for every candidate in
the slack set: is the demotion feasible right now (the closed-form
antichain check), and what does it save (the eq. (1) gain).  The
serial loops answer them one gate at a time through the method-call
surface of :class:`~repro.timing.delay.DelayCalculator`, re-deriving
the reader pin capacitances and rail assignments per query; this
module answers them for a whole batch at once.  A batch is two
parallel arrays, the candidates' snapshot positions and their
destination rails: the form a Dscale round's ``(position, rail)`` pair
table already holds, so no name or move object sits between the round
and the arithmetic.

The state's :class:`~repro.netlist.flat.FlatNetwork` snapshot -- one
for the state's life, patched in place by cell resizes -- freezes
everything that does not change between moves into flat CSR-style
arrays: fanin pin rows, reader pin rows, fanout edge rows with
pre-summed pin capacitances, and the per-rail twin constants
(intrinsics, drive resistance, internal energy) of every gate.  Each
call overlays what does change: the rail plane and the sorted keys of
the level-shifter edges (the state's ``assignment_overlays``, memoized
per assignment version), and the timing arrays of
:class:`~repro.timing.incremental.IncrementalTiming`.  The
per-candidate arithmetic is then elementwise NumPy math plus segmented
reductions, for every candidate: an edge row that already carries a
shifter is *kept* (it stays behind its shifter, retargeted to the
demoted driver's rail), the others stay *direct* or move onto a *new*
shifter, exactly as :meth:`DelayCalculator.demotion_net_change`
classifies them.

The kernels are **bit-identical** to the serial per-candidate loops
(``repro.core.dscale.check_demotion`` and
:func:`~repro.power.estimate.demotion_gain`), which stay as the test
references:

* every float expression replicates the serial association exactly
  (``(a + e) + (i + r*l)``, ``req - (i + r*l)``, ...), with ``+ 0.0``
  standing in for an absent shifter delay or profile entry;
* cross-edge max and AND reductions are order-free over IEEE doubles;
* order-sensitive accumulations (net-change capacitance sums, the
  shifter input caps in the serial ``all_rails`` order, the
  per-shifter gain subtractions) run through ``np.add.at`` /
  ``np.subtract.at``, which apply strictly in row order -- and the rows
  are emitted in the *same* ``network.fanouts`` set order the serial
  loops iterate, with pin caps pre-summed in the same ascending-pin
  order.

The hypothesis suites in ``tests/core/test_moves.py`` pin the kernels
against the serial loops, converter-dense states included.

This module sits in the timing layer: it imports nothing from
``repro.core`` and duck-types the state (``calc`` / ``flat`` /
``assignment_overlays`` / ``options`` / ``tspec`` / ``activity``) so
the move engine above can delegate to it without an import cycle.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.flat import csr_take, find_keys

_UW = 1e-3
"""fF * V^2 * MHz to uW -- the same conversion as repro.power.estimate."""


class _NetVectors:
    """Vectorized ``demotion_net_change`` of a candidate batch.

    ``loads_mat`` holds the *new* shifters' output loads per
    (candidate, destination rail).  ``first_ci`` / ``first_rail`` list
    each candidate's new groups in first-seen (fanout) order -- the
    serial ``converter_loads`` dict insertion order -- for
    order-faithful per-group accumulation downstream.  ``po_new`` marks
    candidates whose new PO shifter created a fresh rail-0 group
    (inserted *last*); ``po_kept`` those keeping a PO shifter, and
    ``has_kept`` those keeping any shifter.  ``new_counts`` counts the
    readers behind each new shifter per (candidate, destination rail),
    a new primary-output shifter on rail 0.
    """

    __slots__ = (
        "load_after",
        "loads_mat",
        "po",
        "po_kept",
        "po_new",
        "has_kept",
        "first_ci",
        "first_rail",
        "new_counts",
    )


def _first_groups(ci, rail, n_rails):
    """Each distinct ``(candidate, rail)`` group once, in row order."""
    if not len(ci):
        return ci, rail
    _, first = np.unique(ci * n_rails + rail, return_index=True)
    first.sort()
    return ci[first], rail[first]


def _net_vectors(static, rails_arr, cp, tg, keys, po_lc, lc_at_outputs):
    m = len(cp)
    n_rails = static.n_rails
    rows, ci, _ = csr_take(static.e_ptr, cp)
    reader = static.e_reader[rows]
    cap = static.e_cap[rows]
    rrail = rails_arr[reader]
    _, kept = find_keys(keys, cp[ci] * static.n + reader)
    direct = ~kept & (rrail >= tg[ci])

    # np.add.at applies strictly in row order == fanouts order, so
    # every per-candidate capacitance sum matches the serial bits.
    direct_cap = np.zeros(m)
    direct_cnt = np.zeros(m, dtype=np.intp)
    di = np.flatnonzero(direct)
    np.add.at(direct_cap, ci[di], cap[di])
    np.add.at(direct_cnt, ci[di], 1)

    loads_mat = np.zeros((m, n_rails))
    cnt_mat = np.zeros((m, n_rails), dtype=np.intp)
    vi = np.flatnonzero(~(kept | direct))
    cvi = ci[vi]
    rvi = rrail[vi]
    np.add.at(loads_mat, (cvi, rvi), cap[vi])
    np.add.at(cnt_mat, (cvi, rvi), 1)
    first_ci, first_rail = _first_groups(cvi, rvi, n_rails)

    # A kept shifter stays on its edge, shifting toward
    # max(min(reader rail, target - 1), 0) once the driver drops.
    ki = np.flatnonzero(kept)
    kci = ci[ki]
    kept_rail = np.maximum(np.minimum(rrail[ki], tg[kci] - 1), 0)
    kept_ci, kept_rail = _first_groups(kci, kept_rail, n_rails)
    is_kept = np.zeros((m, n_rails), dtype=bool)
    is_kept[kept_ci, kept_rail] = True

    po = static.is_po[cp]
    po_kept = po & po_lc[cp]
    po_kept_new = po_kept & ~is_kept[:, 0]
    is_kept[po_kept, 0] = True
    po_open = po & ~po_kept
    po_new = po_open & (cnt_mat[:, 0] == 0) & lc_at_outputs
    if lc_at_outputs:
        loads_mat[po_open, 0] += static.po_load
        cnt_mat[po_open, 0] += 1
    else:
        direct_cap[po_open] += static.po_load
        direct_cnt[po_open] += 1

    conn = direct_cnt + (is_kept | (cnt_mat > 0)).sum(axis=1)
    load_after = direct_cap + np.where(
        conn <= 0, 0.0, static.wire_base + static.wire_per * conn
    )
    # Shifter input caps join in the serial all_rails order: kept
    # groups in first-seen fanout order, a kept PO shifter, the new
    # groups no kept shifter already serves, then a PO-created rail-0
    # group last.
    lc_icap = static.lc_icap
    np.add.at(load_after, kept_ci, lc_icap[kept_rail])
    load_after[po_kept_new] += lc_icap[0]
    fresh = ~is_kept[first_ci, first_rail]
    np.add.at(load_after, first_ci[fresh], lc_icap[first_rail[fresh]])
    load_after[po_new & ~is_kept[:, 0]] += lc_icap[0]

    out = _NetVectors()
    out.load_after = load_after
    out.loads_mat = loads_mat
    out.po = po
    out.po_kept = po_kept
    out.po_new = po_new
    out.has_kept = is_kept.any(axis=1)
    out.first_ci = first_ci
    out.first_rail = first_rail
    out.new_counts = cnt_mat
    return out


def _split_candidates(state, static, positions, targets):
    """Validate the ``(position, target)`` candidates, as arrays.

    Current rails come from the state's memoized rail plane.  Raises
    the serial loops' ``ValueError`` for the first bad candidate in
    input order: a primary input, then a target past the lowest rail,
    then one not below the current rail.  Returns ``(cp, tg, rails,
    names, ())``: positions, targets and current rails as ``intp``
    arrays, and the names.  The fifth slot once listed the candidates
    routed to a serial fallback; it stays, always empty, because the
    perfbench tracer (``perfbench/spans.py``) hooks this function and
    reports its length as ``timing.fallback_frac``.
    """
    cp = np.asarray(positions, dtype=np.intp)
    tg = np.asarray(targets, dtype=np.intp)
    at = cp.tolist()
    names = list(map(static.order.__getitem__, at))
    rails = state.assignment_overlays()[0][cp]
    is_input = np.fromiter(
        map(static.is_input.__getitem__, at), bool, len(at)
    )
    too_low = tg >= static.n_rails
    bad = is_input | too_low | (tg <= rails)
    if bad.any():
        k = int(np.argmax(bad))
        if is_input[k]:
            raise ValueError("primary inputs cannot be demoted")
        name = names[k]
        if too_low[k]:
            raise ValueError(f"{name!r} is already at the lowest rail")
        raise ValueError(
            f"demotion target {int(tg[k])} must sit below {name!r}'s "
            f"current rail {int(rails[k])}"
        )
    return cp, tg, rails, names, ()


# ---------------------------------------------------------------------
# Demotion feasibility (the closed-form antichain check, batched)
# ---------------------------------------------------------------------


def check_demotions(state, analysis, positions, targets) -> list[bool]:
    """Feasibility of each ``(position, target)`` demotion, batched.

    Bit-identical to calling ``repro.core.dscale.check_demotion`` once
    per candidate against the same analysis: same net change, same
    post-demotion shifter delays (a new group merges into the kept
    shifter of its rail, priced at the combined load), same per-edge
    deadline comparisons -- for every candidate, shifters on its output
    or input edges included.  ``analysis`` is the state's
    :class:`~repro.timing.incremental.IncrementalTiming` engine.
    ``positions`` index the state's flat snapshot; ``targets`` are the
    destination rails, one per position.
    """
    if not len(positions):
        return []
    static = state.flat()
    cp, tg, rails, names, _ = _split_candidates(
        state, static, positions, targets
    )
    calc = state.calc
    options = state.options
    tolerance = options.timing_tolerance
    n = static.n
    order = static.order
    rails_arr, keys, po_lc = state.assignment_overlays()
    net = _net_vectors(
        static, rails_arr, cp, tg, keys, po_lc, options.lc_at_outputs
    )
    _, arrival, required, load = analysis.levelized_arrays()
    arrival = np.asarray(arrival)
    required = np.asarray(required)
    load = np.asarray(load)

    # Post-demotion shifter delays per (candidate, rail): the current
    # profile of the kept shifters plus the new loads, as
    # post_demotion_converter_delays prices them.
    profile = np.zeros((len(cp), static.n_rails))
    for j in np.flatnonzero(net.has_kept).tolist():
        for rail, out_load in calc.converter_loads(names[j]).items():
            profile[j, rail] = out_load
    delay_mat = static.lc_intr + static.lc_res * (profile + net.loads_mat)

    # Post-demotion output arrival: (arrival + shifter) + (intr +
    # res*load) per fanin pin, the shifter term 0.0 off converter
    # edges, max-reduced per candidate with the serial 0.0 seed (max
    # is order-free, so the segmented reduction carries the serial
    # bits).
    stage_after = static.drive[tg, cp] * net.load_after
    rows, owner, counts = csr_take(static.fi_ptr, cp)
    src = static.fi_src[rows]
    _, hit = find_keys(keys, src * n + cp[owner])
    hi = np.flatnonzero(hit)
    lc_in = np.zeros(len(rows))
    lc_in[hi] = [
        calc.lc_delay(order[s], names[o])
        for s, o in zip(src[hi].tolist(), owner[hi].tolist())
    ]
    at_pin = (arrival[src] + lc_in) + (
        static.fi_intr[tg[owner], rows] + stage_after[owner]
    )
    if len(rows) and counts.min() > 0:
        offsets = np.zeros(len(cp), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        out_arrival = np.maximum(np.maximum.reduceat(at_pin, offsets), 0.0)
    else:  # a zero-fanin candidate (constant gate): scatter-max instead
        out_arrival = np.zeros(len(cp))
        np.maximum.at(out_arrival, owner, at_pin)

    # Reader edges: a kept shifter is charged at its *current*
    # destination rail (converter_rail before the demotion), a new one
    # at the reader's rail, a direct edge nothing.
    ok = np.ones(len(cp), dtype=bool)
    rows, owner, _ = csr_take(static.rp_ptr, cp)
    reader = static.rp_reader[rows]
    rrail = rails_arr[reader]
    _, kept = find_keys(keys, cp[owner] * n + reader)
    current = np.maximum(np.minimum(rrail, rails[owner] - 1), 0)
    charged = kept | (rrail < tg[owner])
    extra = np.where(
        charged, delay_mat[owner, np.where(kept, current, rrail)], 0.0
    )
    reader_stage = static.drive[rrail, reader] * load[reader]
    deadline = required[reader] - (static.rp_intr[rrail, rows] + reader_stage)
    ok[owner[out_arrival[owner] + extra > deadline + tolerance]] = False

    po_idx = np.flatnonzero(net.po)
    charged = net.po_kept[po_idx] | options.lc_at_outputs
    extra = np.where(charged, delay_mat[po_idx, 0], 0.0)
    ok[po_idx[out_arrival[po_idx] + extra > state.tspec + tolerance]] = False
    return ok.tolist()


# ---------------------------------------------------------------------
# Demotion gains (the eq. (1) paper arithmetic, batched)
# ---------------------------------------------------------------------


def demotion_gains(
    state, positions, targets, wire_factor: float | None = None
) -> list[float]:
    """Paper-model power gain (uW) of each demotion, batched.

    Bit-identical to calling :func:`repro.power.estimate.demotion_gain`
    once per candidate, kept shifters included: the net re-swing and
    internal-energy terms are computed elementwise (same float
    association as the serial expression), and the order-sensitive
    per-shifter subtraction runs in the same first-seen group order the
    serial loop walks.

    With a ``wire_factor`` each gain is also less the placement-aware
    model's wire surcharge
    (:meth:`repro.core.moves.PlacementAwareCostModel.demotion_gain`):
    one subtraction per destination rail of a new shifter, in ascending
    rail order, each charging ``wire_factor`` times the wire cap of the
    readers behind it at that rail's swing.  ``positions`` and
    ``targets`` are as :func:`check_demotions` takes them.
    """
    if not len(positions):
        return []
    static = state.flat()
    cp, tg, rails, names, _ = _split_candidates(
        state, static, positions, targets
    )
    options = state.options
    rails_arr, keys, po_lc = state.assignment_overlays()
    net = _net_vectors(
        static, rails_arr, cp, tg, keys, po_lc, options.lc_at_outputs
    )
    load_of = state.calc.load
    load_before = np.asarray([load_of(name) for name in names])
    rate = static.rates(state.activity)[cp] * options.clock_mhz
    rails_v = static.rails_v
    vdd_before = rails_v[rails]
    vdd_after = rails_v[tg]
    before = load_before * vdd_before * vdd_before
    after = net.load_after * vdd_after * vdd_after
    gains = rate * (before - after) * _UW
    internal = static.energy[rails, cp] - static.energy[tg, cp]
    gains = gains + rate * internal * _UW
    # One subtraction per new shifter group, applied in the serial
    # converter_loads insertion order (np.subtract.at is strictly
    # sequential over the first-seen rows; a PO-created rail-0 group
    # was inserted last).
    first_ci = net.first_ci
    first_rail = net.first_rail
    lc_vdd = rails_v[first_rail]
    lc_out = net.loads_mat[first_ci, first_rail] * lc_vdd * lc_vdd
    term = rate[first_ci] * (static.lc_ie[first_rail] + lc_out) * _UW
    np.subtract.at(gains, first_ci, term)
    po_new = np.flatnonzero(net.po_new)
    lc_vdd = rails_v[0]
    lc_out = net.loads_mat[po_new, 0] * lc_vdd * lc_vdd
    term = rate[po_new] * (static.lc_ie[0] + lc_out) * _UW
    gains[po_new] = gains[po_new] - term
    if wire_factor is not None:
        for rail in range(static.n_rails):
            counts = net.new_counts[:, rail]
            hit = np.flatnonzero(counts > 0)
            if not len(hit):
                continue
            wire_cap = wire_factor * (
                static.wire_base + static.wire_per * counts[hit]
            )
            vdd = rails_v[rail]
            term = rate[hit] * wire_cap * vdd * vdd * _UW
            gains[hit] = gains[hit] - term
    return gains.tolist()


__all__ = [
    "check_demotions",
    "demotion_gains",
]
