"""The shared flat (CSR) snapshot of a mapped network.

Every O(V) engine path used to walk ``network.nodes`` through Python
dicts: the initial full-STA build in
:class:`~repro.timing.incremental.IncrementalTiming`, batched move
pricing in :mod:`repro.timing.batch`, power measurement, and the
Dscale/Gscale candidate enumeration.  PR 8 built a private CSR table
(``_Static``) for the pricing kernels only; this module promotes that
table into one :class:`FlatNetwork` built once per scaling state and
consumed by all of those layers.

Layout
------
Node axis: topological position (``pos[name]``; ``order`` *is* the
network's cached topological list).  Row axes: fanin *pin* rows
(``fi_*``), fanout reader *pin* rows (``rp_*``), and fanout *edge*
rows (``e_*``, one per
(driver, reader) pair with the reader's pin caps pre-summed in
ascending-pin order -- the same sum
:meth:`~repro.timing.delay.DelayCalculator.reader_pin_cap` computes).
Edge rows per driver follow the driver's ``network.fanouts`` set
iteration order, which is stable for the lifetime of the set object,
so sequential accumulation over the rows carries the serial bits.
Per-rail planes (``fi_intr`` / ``rp_intr`` / ``drive`` / ``energy``)
hold each gate's library-twin constants at every rail, and
``by_depth`` groups positions into levelized batches for the
vectorized forward/backward sweeps.

Lifecycle
---------
The snapshot reads gate cells through the state's calculator
(:meth:`~repro.timing.delay.DelayCalculator.cell`), so it describes the
state's cell assignment over a network that scaling never writes.
:meth:`repro.core.state.ScalingState.flat` builds one snapshot on
first use and keeps it for the state's life: the network's topology
never changes under a state, and a gate resize patches the snapshot in
place through :meth:`FlatNetwork.resize`.  The state's timing engine
and power plane read the same object.  A state started at a prepared
circuit's recorded :class:`~repro.core.state.ScaleBaseline` does not
build at all: its first CVS adopts the record
(:meth:`~repro.core.state.ScalingState.replay`), whose snapshot it
takes as a :meth:`FlatNetwork.copy`, which copies the planes a
resize patches and shares the rest, the network and its order
included.  The record's snapshot is itself a ``copy()`` of the first
state's, taken before that state's first move, so a later resize of
the first state patches its own planes and never the record.  Rail
assignments, level-shifter edges, and the timing arrays are *not* in
the snapshot -- they change per move.  Consumers overlay them through
:meth:`FlatNetwork.rail_plane` and :meth:`FlatNetwork.lc_edge_keys`,
plain read-only functions of the assignment they are given.  The
state memoizes the pair per assignment version
(:meth:`~repro.core.state.ScalingState.assignment_overlays`), so a
Dscale round that filters, checks and prices one assignment builds
each overlay once.  :meth:`FlatNetwork.reach` is built lazily
once per snapshot; a resize keeps it, because only a topology edit
changes reachability.  :meth:`FlatNetwork.rates` is the
one per-position activity-rate plane, built on first use and memoized
for the last activity it was asked for.

Planes are NumPy arrays (NumPy is a required dependency): the
``*_ptr`` / ``*_src`` / ``*_reader`` tables and ``by_depth`` batches
are ``np.intp``, ``is_po`` / ``no_wire`` are bool, the per-rail planes
are ``(n_rails, rows)`` float matrices, and ``fi_owner`` / ``e_owner``
/ ``e_counts`` are the derived row-owner tables the levelized sweeps
use.  ``is_input`` stays a plain list and ``pos`` a dict, because the
per-node Python loops index them one name at a time.  ``rate_cache``
holds the last :meth:`FlatNetwork.rates` vector with its activity.
"""

from __future__ import annotations

import numpy as np

PURE_PYTHON_ENV = "REPRO_PURE_PYTHON"
"""Retired switch name; perfbench's environment stamp imports it."""


def numpy_active() -> bool:
    """Always ``True``: perfbench's environment stamp imports it."""
    return True


def csr_take(ptr, sel):
    """Concatenated row window of ``sel``'s CSR segments.

    Returns ``(rows, owner, counts)``: the flat row indices of every
    selected segment in order, the position *within sel* owning each
    row, and the per-segment row counts.
    """
    starts = ptr[sel]
    counts = ptr[sel + 1] - starts
    total = int(counts.sum())
    owner = np.repeat(np.arange(len(sel), dtype=np.intp), counts)
    offsets = np.arange(total, dtype=np.intp) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    rows = np.repeat(starts, counts) + offsets
    return rows, owner, counts


def find_keys(keys, query):
    """``(idx, hit)``: where each ``query`` key sits in sorted ``keys``.

    ``hit`` marks the keys present; ``idx`` indexes ``keys`` where
    ``hit`` holds.  A binary search, which allocates no lookup table.
    """
    idx = np.searchsorted(keys, query)
    if not len(keys):
        return idx, np.zeros(len(query), dtype=bool)
    np.minimum(idx, len(keys) - 1, out=idx)
    return idx, keys[idx] == query


_RESIZED_PLANES = ("no_wire", "drive", "energy", "fi_intr", "rp_intr", "e_cap")
"""The planes :meth:`FlatNetwork.resize` writes in place."""


class FlatNetwork:
    """Flat planes over everything only a resize can change.

    See the module docstring for the layout and the plane types.
    """

    __slots__ = (
        "network", "order", "pos", "n", "n_rails",
        "is_input", "is_po", "no_wire", "rails_v",
        "fi_ptr", "fi_src", "fi_intr",
        "rp_ptr", "rp_reader", "rp_intr",
        "e_ptr", "e_reader", "e_cap",
        "drive", "energy",
        "lc_intr", "lc_res", "lc_icap", "lc_ie",
        "po_load", "wire_base", "wire_per",
        "by_depth", "node_idx", "fi_owner", "e_owner", "e_counts",
        "rate_cache", "reach_cache",
    )

    def rail_plane(self, levels) -> np.ndarray:
        """Per-position rail indices of ``levels`` (0 = high supply).

        Read-only, so a caller may memoize it (see
        :meth:`repro.core.state.ScalingState.assignment_overlays`).
        """
        rails = np.zeros(self.n, dtype=np.intp)
        pos = self.pos
        for name, level in levels.items():
            if level:
                rails[pos[name]] = int(level)
        rails.flags.writeable = False
        return rails

    def lc_edge_keys(self, lc_edges) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, po_lc)``: the level-shifter edges of ``lc_edges``.

        ``keys`` are the sorted ``pos[driver] * n + pos[reader]`` keys
        of the shifters on fanout edges (look rows up with
        :func:`find_keys`); ``po_lc`` masks the drivers whose primary
        output carries a shifter (the ``OUTPUT`` reader sentinel, the
        one reader that is not a node).  Both are read-only, like
        :meth:`rail_plane`.
        """
        pos = self.pos
        n = self.n
        po_lc = np.zeros(n, dtype=bool)
        keys = []
        for driver, reader in lc_edges:
            r = pos.get(reader)
            if r is None:
                po_lc[pos[driver]] = True
            else:
                keys.append(pos[driver] * n + r)
        keys = np.asarray(keys, dtype=np.intp)
        keys.sort()
        keys.flags.writeable = False
        po_lc.flags.writeable = False
        return keys, po_lc

    def reach(self) -> list[int]:
        """Strict reachability bitsets by topological position.

        Bit ``j`` of ``reach()[i]`` is set when position ``j`` is
        reachable from ``i`` through one or more fanout edges.  Built
        on first use by one reverse-topological OR pass over the edge
        rows and kept for the snapshot's lifetime (``n * n / 8``
        bytes).
        """
        reach = self.reach_cache
        if reach is None:
            reach = [0] * self.n
            e_ptr = self.e_ptr.tolist()
            e_reader = self.e_reader.tolist()
            for i in range(self.n - 1, -1, -1):
                mask = 0
                lo, hi = e_ptr[i], e_ptr[i + 1]
                for r in e_reader[lo:hi]:
                    mask |= reach[r] | 1 << r
                reach[i] = mask
            self.reach_cache = reach
        return reach

    def rates(self, activity) -> np.ndarray:
        """Per-position rising-transition rates of ``activity``.

        The snapshot's only activity plane: the power sweep and the
        batched gain pricing both read it.  Cached on the snapshot and
        keyed by the activity object's identity (activities are frozen
        per circuit).
        """
        cached = self.rate_cache
        if cached is None or cached[0] is not activity:
            rate01 = activity.rate01
            cached = (activity, np.asarray([rate01(n) for n in self.order]))
            self.rate_cache = cached
        return cached[1]

    def copy(self) -> FlatNetwork:
        """A copy of this snapshot for another state.

        The planes :meth:`resize` patches are copied; every other
        plane, the network, its order, the memoized rates and
        reachability included, is shared, because nothing writes to it.
        """
        flat = FlatNetwork()
        for slot in FlatNetwork.__slots__:
            setattr(flat, slot, getattr(self, slot))
        for slot in _RESIZED_PLANES:
            setattr(flat, slot, getattr(self, slot).copy())
        return flat

    def resize(self, i: int, calc) -> None:
        """Patch the planes after node ``i``'s cell was swapped.

        Rewrites the gate's own ``drive`` / ``energy`` / ``no_wire``
        columns and ``fi_intr`` rows, and per fanin driver the
        ``rp_intr`` rows read by this gate plus the ``e_cap`` of the
        edge into it (pins summed in ascending order, as
        :func:`build_flat` does), so the snapshot equals a fresh build
        bit for bit.  ``calc`` supplies the gate's cell and its rail
        twins.
        """
        node = self.network.nodes[self.order[i]]
        cell = calc.cell(node.name)
        cells = [
            cell if r == 0 else calc.rail_variant_of(cell, r)
            for r in range(self.n_rails)
        ]
        self.no_wire[i] = cell.is_level_converter
        fi_rows = slice(self.fi_ptr[i], self.fi_ptr[i + 1])
        pins_of: dict[str, list[int]] = {}
        for pin, fanin in enumerate(node.fanins):
            pins_of.setdefault(fanin, []).append(pin)
        for r, variant in enumerate(cells):
            self.drive[r, i] = variant.drive_res
            self.energy[r, i] = variant.internal_energy
            self.fi_intr[r, fi_rows] = [
                variant.intrinsics[pin] for pin in range(len(node.fanins))
            ]
        caps = cell.input_caps
        for fanin, pins in pins_of.items():
            d = self.pos[fanin]
            lo, hi = self.rp_ptr[d], self.rp_ptr[d + 1]
            rows = lo + np.flatnonzero(self.rp_reader[lo:hi] == i)
            for r, variant in enumerate(cells):
                self.rp_intr[r, rows] = [variant.intrinsics[p] for p in pins]
            cap = 0
            for pin in pins:
                cap = cap + caps[pin]
            lo, hi = self.e_ptr[d], self.e_ptr[d + 1]
            self.e_cap[lo + np.flatnonzero(self.e_reader[lo:hi] == i)] = cap


def build_flat(network, calc) -> FlatNetwork:
    """Build the flat snapshot of a mapped ``network``.

    ``calc`` is the state's :class:`~repro.timing.delay.DelayCalculator`
    (duck-typed: ``cell`` / ``rail_variant_of`` / ``lc_cell_for`` /
    ``po_load`` / ``n_rails`` / ``library``).  Row emission replicates
    the serial query order exactly -- see the module docstring.
    """
    nodes = network.nodes
    order = network.topological()
    pos = {name: i for i, name in enumerate(order)}
    n = len(order)
    n_rails = calc.n_rails
    twin = calc.rail_variant_of
    outputs = network.outputs

    variants: list[tuple | None] = [None] * n
    drive = [[0.0] * n for _ in range(n_rails)]
    energy = [[0.0] * n for _ in range(n_rails)]
    is_input = [False] * n
    is_po = [False] * n
    no_wire = [False] * n
    depth = [0] * n
    by_depth: list[list[int]] = []
    fi_ptr = [0]
    fi_src: list[int] = []
    fi_intr: list[list[float]] = [[] for _ in range(n_rails)]
    for i, name in enumerate(order):
        node = nodes[name]
        is_input[i] = node.is_input
        is_po[i] = name in outputs
        if not node.is_input:
            depth[i] = 1 + max(
                (depth[pos[f]] for f in node.fanins), default=0
            )
        level = depth[i]
        while len(by_depth) <= level:
            by_depth.append([])
        by_depth[level].append(i)
        cell = calc.cell(name)
        if cell is not None:
            no_wire[i] = cell.is_level_converter
            cells = tuple(
                cell if r == 0 else twin(cell, r) for r in range(n_rails)
            )
            variants[i] = cells
            for r in range(n_rails):
                drive[r][i] = cells[r].drive_res
                energy[r][i] = cells[r].internal_energy
            for pin, fanin in enumerate(node.fanins):
                fi_src.append(pos[fanin])
                for r in range(n_rails):
                    fi_intr[r].append(cells[r].intrinsics[pin])
        fi_ptr.append(len(fi_src))

    rp_ptr = [0]
    rp_reader: list[int] = []
    rp_intr: list[list[float]] = [[] for _ in range(n_rails)]
    e_ptr = [0]
    e_reader: list[int] = []
    e_cap: list[float] = []
    for name in order:
        # The same fanouts set object the serial loops iterate -- its
        # in-process order is frozen into the edge rows here.
        for reader in network.fanouts(name):
            rpos = pos[reader]
            rnode = nodes[reader]
            rcells = variants[rpos]
            caps = rcells[0].input_caps
            cap = 0
            for pin, fanin in enumerate(rnode.fanins):
                if fanin != name:
                    continue
                cap = cap + caps[pin]
                rp_reader.append(rpos)
                for r in range(n_rails):
                    rp_intr[r].append(rcells[r].intrinsics[pin])
            e_reader.append(rpos)
            e_cap.append(cap)
        rp_ptr.append(len(rp_reader))
        e_ptr.append(len(e_reader))

    # Shifter constants per destination rail; the lowest rail never
    # receives an up-shift, so its slot is a zero pad (full-rail fancy
    # indexing may touch it, but masks discard the value).
    lc_intr = [0.0] * n_rails
    lc_res = [0.0] * n_rails
    lc_icap = [0.0] * n_rails
    lc_ie = [0.0] * n_rails
    for rail in range(max(1, n_rails - 1)):
        cell = calc.lc_cell_for(rail)
        lc_intr[rail] = cell.intrinsics[0]
        lc_res[rail] = cell.drive_res
        lc_icap[rail] = cell.input_caps[0]
        lc_ie[rail] = cell.internal_energy

    intp = np.intp
    fi_ptr = np.asarray(fi_ptr, dtype=intp)
    e_ptr = np.asarray(e_ptr, dtype=intp)
    node_idx = np.arange(n, dtype=intp)
    e_counts = np.diff(e_ptr)

    flat = FlatNetwork()
    flat.network = network
    flat.order = order
    flat.pos = pos
    flat.n = n
    flat.n_rails = n_rails
    flat.is_input = is_input
    flat.is_po = np.asarray(is_po, dtype=bool)
    flat.no_wire = np.asarray(no_wire, dtype=bool)
    flat.rails_v = np.asarray(calc.library.rails)
    flat.fi_ptr = fi_ptr
    flat.fi_src = np.asarray(fi_src, dtype=intp)
    flat.fi_intr = np.asarray(fi_intr)
    flat.rp_ptr = np.asarray(rp_ptr, dtype=intp)
    flat.rp_reader = np.asarray(rp_reader, dtype=intp)
    flat.rp_intr = np.asarray(rp_intr)
    flat.e_ptr = e_ptr
    flat.e_reader = np.asarray(e_reader, dtype=intp)
    flat.e_cap = np.asarray(e_cap)
    flat.drive = np.asarray(drive)
    flat.energy = np.asarray(energy)
    flat.lc_intr = np.asarray(lc_intr)
    flat.lc_res = np.asarray(lc_res)
    flat.lc_icap = np.asarray(lc_icap)
    flat.lc_ie = np.asarray(lc_ie)
    flat.po_load = calc.po_load
    flat.wire_base = calc.library.wire_model.base
    flat.wire_per = calc.library.wire_model.per_fanout
    flat.by_depth = [np.asarray(level, dtype=intp) for level in by_depth]
    flat.node_idx = node_idx
    flat.fi_owner = np.repeat(node_idx, np.diff(fi_ptr))
    flat.e_owner = np.repeat(node_idx, e_counts)
    flat.e_counts = e_counts
    flat.rate_cache = None
    flat.reach_cache = None
    return flat


__all__ = [
    "FlatNetwork",
    "build_flat",
    "csr_take",
    "find_keys",
]
