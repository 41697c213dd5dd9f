"""The unified move engine: one transactional layer under CVS/Dscale/Gscale.

The paper's three algorithms share one hidden structure -- propose a
mutation, price it, verify timing, commit or roll back -- which each of
them used to reimplement ad hoc.  This module makes that structure
explicit:

* a :class:`Move` is one reversible state mutation
  (:class:`DemoteMove`, :class:`PromoteMove`, :class:`ResizeMove`,
  :class:`RetargetShifterMove`, :class:`DropConverterMove`) with
  ``apply(state)`` / ``undo(state)``;
* a :class:`CostModel` turns a candidate demotion into a power gain
  figure (uW saved); the registry ships the seed paper arithmetic
  (:class:`PaperCostModel`, the default -- bit-identical to the
  pre-refactor inlined computation) and a placement-aware level-shifter
  model (:class:`PlacementAwareCostModel`) in the spirit of the
  level-shifter-assignment floorplanning line (arXiv:1402.2894,
  arXiv:1402.3149), where a shifter's wiring cost is a first-class
  term, not free;
* a :class:`MoveEngine` executes moves either unconditionally
  (:meth:`MoveEngine.apply` -- CVS's pre-verified demotions) or as
  what-if transactions (:meth:`MoveEngine.try_move` -- Gscale's
  per-resize verification, Dscale's converter cleanup and shifter
  retargeting) riding the existing
  ``begin_move()/commit_move()/rollback_move()`` timing journal, and
  accumulates per-move-kind counters into the state's
  :class:`MoveStats`.

Two capabilities exist *because* of this layer (both N-rail-only, so
the two-rail golden stays bit-identical):

* **non-adjacent demotion** -- ``DemoteMove(name, target=k)`` drops a
  gate several rails in one move, escaping the local minimum where
  every single-rail step prices negative but the deep drop is a win;
* **shifter retargeting** -- ``RetargetShifterMove`` demotes a driver
  that already carries shifters, letting the kept groups re-target
  their destination rails mid-demotion instead of deferring the gate
  to the cleanup pass; the move is verified transactionally (exact
  engine timing plus a measured power improvement) because the
  closed-form candidate check cannot price a regrouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.estimate import demotion_gain
from repro.timing import batch
from repro.timing.delay import OUTPUT, DemotionNetChange

MOVE_KINDS = ("demote", "promote", "resize", "retarget", "drop_converter")
"""Every move kind a stats table may carry, in reporting order."""


# -- statistics --------------------------------------------------------


@dataclass
class MoveStats:
    """Per-move-kind counters of one scaling run.

    ``attempted`` counts every move handed to the engine; ``committed``
    the ones that stuck; ``rolled_back`` the transactional attempts the
    verification rejected.  Unconditional applies count as attempted +
    committed.
    """

    attempted: dict[str, int] = field(default_factory=dict)
    committed: dict[str, int] = field(default_factory=dict)
    rolled_back: dict[str, int] = field(default_factory=dict)

    def note(self, kind: str, committed: bool) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        table = self.committed if committed else self.rolled_back
        table[kind] = table.get(kind, 0) + 1

    def count(self, kind: str) -> int:
        """Committed moves of one kind."""
        return self.committed.get(kind, 0)

    def add(self, other: MoveStats) -> None:
        """Add ``other``'s counters to these."""
        for mine, theirs in (
            (self.attempted, other.attempted),
            (self.committed, other.committed),
            (self.rolled_back, other.rolled_back),
        ):
            for kind, n in theirs.items():
                mine[kind] = mine.get(kind, 0) + n

    def as_dict(self) -> dict[str, dict[str, int]]:
        """A plain, deterministically-ordered JSON-ready snapshot."""
        return {
            "attempted": {
                k: self.attempted[k] for k in sorted(self.attempted)
            },
            "committed": {
                k: self.committed[k] for k in sorted(self.committed)
            },
            "rolled_back": {
                k: self.rolled_back[k] for k in sorted(self.rolled_back)
            },
        }


# -- moves -------------------------------------------------------------


class Move:
    """One reversible mutation of a :class:`ScalingState`.

    ``apply`` performs the mutation through the state's writers
    (``set_rail`` / ``add_converter`` / ``drop_converter`` /
    ``resize``, so every timing invalidation routes automatically) and
    records whatever ``undo`` needs to revert it exactly.
    """

    kind = "move"
    #: Identifies the move across retries for :meth:`MoveEngine.try_move`'s
    #: certificate memo (``None``: no memo).  It affects only how often
    #: a replay fires or a retry is skipped, never a decision.
    key: tuple | None = None

    def apply(self, state) -> None:
        raise NotImplementedError

    def undo(self, state) -> None:
        raise NotImplementedError

    def footprint(self, state) -> tuple[str, ...] | None:
        """The gates whose state :meth:`apply` reads, or ``None``.

        A retry of a move with a footprint may be rejected unopened
        while nothing its last replayed reject read has changed (see
        :meth:`MoveEngine.try_move`).  ``None`` (the default) names no
        bound, and such a move is always tried.
        """
        return None


class DemoteMove(Move):
    """Drop one gate to a lower rail, splicing the required shifters.

    ``target=None`` is the classic one-rail step; an explicit deeper
    ``target`` is a *non-adjacent* demotion -- one transactional jump
    past the intermediate rails (N-rail libraries only; a two-rail
    library has no non-adjacent pair).  ``change`` is the move's
    ``demotion_net_change`` when the caller derived it already, on the
    state the move applies to (see :meth:`ScalingState.demote`).
    """

    kind = "demote"

    def __init__(self, name: str, target: int | None = None, change=None):
        self.name = name
        self.target = target
        self.change = change
        self.key = (self.kind, name, target)
        self._old_rail: int = 0
        self._new_edges: tuple[tuple[str, str], ...] = ()

    def apply(self, state) -> None:
        self._old_rail = state.rail_of(self.name)
        self._new_edges = tuple(
            state.demote(self.name, self.target, self.change)
        )

    def undo(self, state) -> None:
        for edge in self._new_edges:
            state.drop_converter(edge)
        state.set_rail(self.name, self._old_rail)

    def footprint(self, state) -> tuple[str, ...]:
        """The gate, its fanins and its readers.

        :meth:`ScalingState.demote` reads the rails and converter edges
        of exactly these, and they fix the timing seeds it leaves.
        """
        network = state.network
        name = self.name
        return (name, *network.nodes[name].fanins, *network.fanouts(name))


class RetargetShifterMove(DemoteMove):
    """Demote a driver whose existing shifters must re-target.

    Dropping a shifter-carrying driver changes the destination rail of
    its kept converter groups (``DelayCalculator.converter_rail`` is a
    function of the driver's rail), so the demotion and the retargeting
    are one atomic move.  The closed-form per-candidate check cannot
    price this -- such gates were historically deferred to the cleanup
    pass -- so the move is meant for :meth:`MoveEngine.try_move`, where
    the incremental engine re-times the mutated cone exactly.
    """

    kind = "retarget"


class PromoteMove(Move):
    """Raise a gate one rail, restoring the converter edges it had."""

    kind = "promote"

    def __init__(self, name: str):
        self.name = name
        self.key = (self.kind, name)
        self._old_rail: int = 0
        self._old_edges: tuple[tuple[str, str], ...] = ()

    def apply(self, state) -> None:
        self._old_rail = state.rail_of(self.name)
        self._old_edges = tuple(
            (self.name, reader)
            for reader in state.converter_readers(self.name)
        )
        state.promote(self.name)

    def undo(self, state) -> None:
        state.set_rail(self.name, self._old_rail)
        for edge in self._old_edges:
            state.add_converter(edge)


class ResizeMove(Move):
    """Swap a gate's bound cell for another size of the same base."""

    kind = "resize"

    def __init__(self, name: str, cell):
        self.name = name
        self.cell = cell
        self.key = (self.kind, name, cell)
        self._old_cell = None

    def apply(self, state) -> None:
        self._old_cell = state.cell(self.name)
        state.resize(self.name, self.cell)

    def undo(self, state) -> None:
        state.resize(self.name, self._old_cell)

    @property
    def old_cell(self):
        """The cell the gate carried before :meth:`apply` (or ``None``)."""
        return self._old_cell


class DropConverterMove(Move):
    """Remove one converter edge (the cleanup pass's unit of work)."""

    kind = "drop_converter"

    def __init__(self, edge: tuple[str, str]):
        self.edge = edge
        self.key = (self.kind, edge)

    def apply(self, state) -> None:
        state.drop_converter(self.edge)

    def undo(self, state) -> None:
        state.add_converter(self.edge)


# -- cost models -------------------------------------------------------


class CostModel:
    """Prices candidate demotions; the optimizers select on these figures.

    A model returns *power gain in uW* (positive = the move saves
    power).  Subclass and :func:`register_cost_model` to experiment
    with alternative economics -- the optimizers never hard-code the
    arithmetic.

    Dscale keeps each pair's gain from one round to the next only
    under a model that sets :attr:`local_gains`.  Such a model promises
    that :meth:`demotion_gain` of ``(name, target)`` is a pure function
    of the gate's rail, cell, net and converters and of its readers'
    rails and cells, plus state that never changes during a run (the
    activity, the options, the library and the model's own
    parameters).  Those are what the timing engine's note stamps cover
    at the gate and reader positions.  Each class declares it in its
    own body: one that does not, a subclass of a built-in model
    included, has ``False``, and every feasible pair is re-priced each
    round.
    """

    name = ""
    description = ""
    #: Whether gains read only the gate's and its readers' state (see
    #: above), so Dscale may keep a gain while neither changed.
    local_gains = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "local_gains" not in cls.__dict__:
            cls.local_gains = False

    def demotion_gain(
        self, state, name: str, target: int | None = None
    ) -> float:
        """Power saved by dropping ``name`` to ``target`` (uW)."""
        raise NotImplementedError

    def demotion_gains(self, state, positions, targets) -> list[float]:
        """Batched :meth:`demotion_gain` over ``(position, target)`` pairs.

        ``positions`` index the state's flat snapshot and ``targets``
        name each pair's destination rail.  The default maps positions
        to names through the snapshot's order and loops over
        :meth:`demotion_gain`, so custom models are batch-correct
        without writing any batch code; models whose arithmetic
        vectorizes override this (``paper`` delegates to the
        :mod:`repro.timing.batch` kernel).
        """
        order = state.flat().order
        return [
            self.demotion_gain(state, order[p], target=int(t))
            for p, t in zip(positions, targets)
        ]


class PaperCostModel(CostModel):
    """The seed paper's cost arithmetic, verbatim.

    Delegates to :func:`repro.power.estimate.demotion_gain` with the
    state's own knobs -- the exact call the pre-refactor Dscale loop
    inlined, so selecting this model (the default) keeps the two-rail
    golden bit-identical.
    """

    name = "paper"
    description = (
        "eq. (1) demotion gain: net re-swing + internal-energy drop "
        "minus new shifter energy (the seed arithmetic)"
    )
    local_gains = True

    def demotion_gain(
        self, state, name: str, target: int | None = None
    ) -> float:
        return demotion_gain(
            state.calc,
            state.activity,
            name,
            clock_mhz=state.options.clock_mhz,
            lc_at_outputs=state.options.lc_at_outputs,
            target=target,
        )

    def demotion_gains(self, state, positions, targets) -> list[float]:
        """One vectorized sweep; bit-identical to the serial loop."""
        return batch.demotion_gains(state, positions, targets)


class PlacementAwareCostModel(PaperCostModel):
    """Paper gain minus a placement cost per new level shifter.

    The virtual converter model assumes receiver-integrated shifters
    whose output nets carry no interconnect.  Placed as standalone
    cells (the region-based shifter-assignment formulation of
    arXiv:1402.2894), each new shifter's output net does carry an
    estimated wire load proportional to the fanout it serves; this
    model charges that wire's switching energy -- at the destination
    rail's swing -- against the demotion gain, making shifter-heavy
    demotions less attractive exactly where floorplanning would
    struggle to absorb them.
    """

    name = "placement"
    description = (
        "paper gain minus estimated shifter-output wire energy "
        "(standalone-placed level shifters, per destination rail)"
    )
    local_gains = True

    def __init__(self, wire_factor: float = 1.0):
        self.wire_factor = wire_factor

    def demotion_gain(
        self, state, name: str, target: int | None = None
    ) -> float:
        gain = super().demotion_gain(state, name, target=target)
        return self._less_wire(state, name, target, gain)

    def demotion_gains(self, state, positions, targets) -> list[float]:
        """One vectorized sweep with the wire surcharge folded in.

        Bit-identical to the serial :meth:`demotion_gain` per pair.
        """
        return batch.demotion_gains(
            state, positions, targets, wire_factor=self.wire_factor
        )

    def _less_wire(
        self, state, name: str, target: int | None, gain: float
    ) -> float:
        """``gain`` less the wire energy of the new shifters' outputs.

        One subtraction per destination rail, in ascending rail order,
        as the batched kernel subtracts them.
        """
        change = state.calc.demotion_net_change(
            name, state.options.lc_at_outputs, target=target
        )
        if not change.new_edges:
            return gain
        readers_per_rail: dict[int, int] = {}
        for _driver, reader in change.new_edges:
            rail = 0 if reader == OUTPUT else state.rail_of(reader)
            readers_per_rail[rail] = readers_per_rail.get(rail, 0) + 1
        a01 = state.activity.rate01(name)
        clock_mhz = state.options.clock_mhz
        wire = state.library.wire_model
        rails = state.rails
        for rail in sorted(readers_per_rail):
            wire_cap = self.wire_factor * wire.cap(readers_per_rail[rail])
            vdd = rails[rail]
            gain -= a01 * clock_mhz * wire_cap * vdd * vdd * 1e-3
        return gain


BUILTIN_COST_MODELS = ("paper", "placement")
"""Always-registered cost models; ``paper`` is the default and is
bit-identical to the seed arithmetic."""

_COST_MODELS: dict[str, CostModel] = {}


def register_cost_model(model: CostModel, replace: bool = False) -> CostModel:
    """Make ``model`` selectable by name (``FlowConfig.cost_model``).

    Registering over an existing name raises unless ``replace=True`` --
    silently shadowing ``paper`` would corrupt every downstream table.
    """
    if not model.name:
        raise ValueError("a cost model needs a non-empty name")
    if not replace and model.name in _COST_MODELS:
        raise ValueError(
            f"cost model {model.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _COST_MODELS[model.name] = model
    return model


def unregister_cost_model(name: str) -> None:
    """Remove a custom cost model (builtins stay)."""
    if name in BUILTIN_COST_MODELS:
        raise ValueError(
            f"built-in cost model {name!r} cannot be unregistered"
        )
    _COST_MODELS.pop(name, None)


def get_cost_model(model: str | CostModel | None) -> CostModel:
    """Resolve a name (or pass an instance through) to a cost model."""
    if model is None:
        return _COST_MODELS["paper"]
    if isinstance(model, CostModel):
        return model
    try:
        return _COST_MODELS[model]
    except KeyError:
        raise ValueError(
            f"cost model must be one of the registered models "
            f"{registered_cost_models()}, got {model!r}"
        ) from None


def registered_cost_models() -> tuple[str, ...]:
    """Every registered cost model name, builtins first."""
    return tuple(_COST_MODELS)


def list_cost_models() -> tuple[CostModel, ...]:
    return tuple(_COST_MODELS.values())


register_cost_model(PaperCostModel())
register_cost_model(PlacementAwareCostModel())


# -- the engine --------------------------------------------------------


class _Certificate:
    """The path behind one move's last timing reject.

    After a reject that replayed the path, the record also holds what
    that replay read: the timing engine and its epoch, the limit (the
    cap folded in), the position whose arrival the replay started
    from, and the positions of the replayed path nodes and of the
    move's footprint.  Otherwise ``engine`` is ``None`` and the record
    only replays.
    """

    __slots__ = ("path", "engine", "epoch", "limit", "start", "checked")

    def __init__(self, path: tuple):
        self.path = path
        self.engine = None

    def replayed(self, engine, limit, footprint) -> None:
        """Record what a replayed reject read (``footprint`` may be None)."""
        if footprint is None:
            self.engine = None
            return
        pos = engine.network.topo_index()
        names = [name for name, _pin in self.path[engine.replay_start :]]
        self.engine = engine
        self.epoch = engine.epoch
        self.limit = limit
        self.start = pos[names[0]]
        self.checked = tuple({pos[name] for name in (*names, *footprint)})

    def stands(self, engine, limit) -> bool:
        """Whether a retry now would replay to the same reject."""
        return (
            self.engine is engine
            and self.limit == limit
            and engine.unchanged_since(self.epoch, self.start, self.checked)
        )


class MoveEngine:
    """Executes moves on one state, transactionally or not.

    It also checks and prices a batch of plain demotions in one sweep
    (:meth:`check_moves`, :meth:`price_moves`), given as parallel
    arrays of snapshot positions and target rails -- the form a Dscale
    round's pair table holds.

    Counters accumulate into ``state.move_stats``, so CVS running
    inside Dscale or Gscale reports into the same table.  Beyond the
    resolved cost model the engine keeps one record per
    :attr:`Move.key`, for the life of the engine: the last timing
    reject's path certificate and, when that reject was a replay, what
    the replay read.
    """

    def __init__(self, state, cost_model: str | CostModel | None = None):
        self.state = state
        self.cost_model = get_cost_model(cost_model)
        self.stats: MoveStats = state.move_stats
        #: Post-move worst delay of the last :meth:`try_move` that
        #: committed; ``None`` after any other attempt (a reject may
        #: stop the timing repair before the worst delay is known).
        self.last_worst_delay: float | None = None
        #: Measured post-commit total power of the last :meth:`try_move`
        #: that committed under ``require_power_gain`` (the verification
        #: already paid for the measurement); ``None`` after any other
        #: attempt.  Callers chaining power-gated moves read this
        #: instead of re-estimating the whole network per commit.
        self.last_power: float | None = None
        self._certificates: dict[tuple, _Certificate] = {}

    def price_moves(self, positions, targets) -> list[float]:
        """Power gain (uW) of each ``(position, target)`` demotion.

        One :meth:`CostModel.demotion_gains` sweep of the engine's cost
        model (vectorized for the built-in models, bit-identical to the
        serial loop).
        """
        return self.cost_model.demotion_gains(self.state, positions, targets)

    def check_moves(self, positions, targets, analysis=None) -> list[bool]:
        """Closed-form feasibility of each ``(position, target)`` demotion.

        One sweep of the :mod:`repro.timing.batch` kernel over the
        analysis' levelized arrays (the state's timing engine when
        ``analysis`` is ``None``), bit-identical to running the serial
        ``check_demotion`` per pair.  The closed form is exact for
        antichain application of plain demotions only; verify anything
        transactional (a :class:`RetargetShifterMove`, say) with
        :meth:`try_move` instead.
        """
        if analysis is None:
            analysis = self.state.timing()
        return batch.check_demotions(self.state, analysis, positions, targets)

    def apply(self, move: Move) -> None:
        """Apply unconditionally (the caller already verified it)."""
        move.apply(self.state)
        self.stats.note(move.kind, committed=True)

    def try_move(
        self,
        move: Move,
        worst_delay_cap: float | None = None,
        require_power_gain: bool = False,
        power_before: float | None = None,
    ) -> bool:
        """Apply ``move`` as a what-if transaction; keep it only if legal.

        The move is applied inside a timing transaction and kept when
        the worst delay exceeds neither ``tspec`` plus the state's
        timing tolerance nor ``worst_delay_cap`` (when given), and --
        with ``require_power_gain`` -- the measured total power
        strictly improved over ``power_before`` (measured here when the
        caller does not supply it; callers attempting many moves
        against one unchanged state pass the baseline in to skip the
        redundant O(network) estimations).  The timing check is one
        :meth:`~repro.timing.incremental.IncrementalTiming.exceeds`
        query, which may reject before re-timing the whole forward
        cone.  Before it, the path that proved the same move's last
        timing reject (:attr:`Move.key`) is replayed; a replay above
        the limit is a proof and rejects with no re-timing at all.  A
        rejected move is undone and the journaled timing values are
        restored without recomputation.

        A retry whose last reject was such a replay is rejected before
        any state is written while the limit is the same and no
        arrival, rail, cell, net or converter that replay read has
        changed since (the engine's change stamps, after its pending
        forward repair): the replay would read the same values and
        reject again.  Only a move with a :meth:`Move.footprint` is
        skipped; the skip still counts as a rolled-back attempt.

        Resets :attr:`last_worst_delay` and :attr:`last_power` on
        entry.  Returns whether the move was committed.
        """
        state = self.state
        self.last_power = None
        self.last_worst_delay = None
        check = state.timing()
        limit = check.tspec + state.options.timing_tolerance
        if worst_delay_cap is not None and worst_delay_cap < limit:
            limit = worst_delay_cap
        key = move.key
        record = self._certificates.get(key) if key is not None else None
        if record is not None and record.stands(check, limit):
            self.stats.note(move.kind, committed=False)
            return False
        if require_power_gain and power_before is None:
            power_before = state.power().total
        state.begin_move()
        try:
            move.apply(state)
            if record is not None and check.replay_exceeds(record.path, limit):
                ok = False
                record.replayed(check, limit, move.footprint(state))
            else:
                ok = not check.exceeds(limit)
                if key is not None:
                    if ok or check.last_path is None:
                        self._certificates.pop(key, None)
                    else:
                        self._certificates[key] = _Certificate(check.last_path)
            if ok and require_power_gain:
                measured = state.power().total
                ok = measured < power_before
                if ok:
                    self.last_power = measured
        except BaseException:
            # A raising move (a custom Move, a bad target) must not
            # leave the timing transaction open and the state half
            # mutated -- that would brick every later transactional
            # call with "a timing transaction is already active".
            # rollback_move runs even when undo itself raises.
            self.stats.note(move.kind, committed=False)
            self._certificates.pop(key, None)
            try:
                move.undo(state)
            finally:
                state.rollback_move()
            raise
        if ok:
            state.commit_move()
            self.last_worst_delay = check.worst_delay
        else:
            move.undo(state)
            state.rollback_move()
        self.stats.note(move.kind, committed=ok)
        return ok


# -- shared candidate arithmetic ---------------------------------------


def demoted_arrival(
    state, name: str, target: int, arrival, load_after: float
) -> float:
    """Post-demotion output arrival of ``name`` from snapshot arrivals.

    The single arithmetic all three optimizers price candidates with:
    the gate's stage delay at the destination-rail twin driving the
    post-demotion net load, fed by the snapshot arrivals plus any
    existing converter delay on the input edges.  Exact given the
    snapshot: a demotion changes only this gate's own stage delay (and,
    at the boundary, its load).
    """
    calc = state.calc
    node = state.network.nodes[name]
    low_cell = calc.rail_variant_of(calc.cell(name), target)
    out_arrival = 0.0
    for pin, fanin in enumerate(node.fanins):
        at_pin = arrival[fanin] + calc.edge_extra_delay(fanin, name)
        at_pin += low_cell.pin_delay(pin, load_after)
        if at_pin > out_arrival:
            out_arrival = at_pin
    return out_arrival


def demotion_deadline(
    state, name: str, target: int, arrival, required: float
) -> tuple[float, float, DemotionNetChange]:
    """``(out_arrival, deadline, change)`` of dropping ``name`` one rail now.

    The CVS / Gscale closed-form check: the :func:`demoted_arrival` of
    the gate at ``target`` (its current rail plus one) against
    ``required``, the gate's own required time, tightened at a primary
    output by the delay of the boundary shifter the demotion would
    splice in, priced as
    :meth:`~repro.timing.delay.DelayCalculator.post_demotion_converter_delays`
    prices it.  Callers compare the pair themselves (CVS's feasibility,
    Gscale's shortfall); ``change`` is the demotion's net change, which
    CVS hands to the move it applies.
    """
    calc = state.calc
    change = calc.demotion_net_change(
        name, state.options.lc_at_outputs, target
    )
    out_arrival = demoted_arrival(
        state, name, target, arrival, change.load_after
    )
    deadline = required
    if name in state.network.outputs and (name, OUTPUT) in change.new_edges:
        po_extra = calc.post_demotion_converter_delays(name, change)[0]
        deadline = min(deadline, state.tspec - po_extra)
    return out_arrival, deadline, change


__all__ = [
    "BUILTIN_COST_MODELS",
    "MOVE_KINDS",
    "CostModel",
    "DemoteMove",
    "DropConverterMove",
    "Move",
    "MoveEngine",
    "MoveStats",
    "PaperCostModel",
    "PlacementAwareCostModel",
    "PromoteMove",
    "ResizeMove",
    "RetargetShifterMove",
    "demoted_arrival",
    "demotion_deadline",
    "get_cost_model",
    "list_cost_models",
    "register_cost_model",
    "registered_cost_models",
    "unregister_cost_model",
]
