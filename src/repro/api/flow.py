"""The composable flow: named, swappable stages behind one front door.

A :class:`Flow` executes the paper's pipeline as six named stages --

    optimize -> map -> constrain -> scale -> restore -> measure

-- driven by one declarative :class:`~repro.api.config.FlowConfig`.
Every stage is a plain callable over the shared :class:`FlowContext`,
and :meth:`Flow.with_stage` swaps any of them, so a placement-aware
cost model or a different constraint policy is a function, not a fork
of the pipeline.  The ``scale`` stage dispatches through the
:mod:`~repro.api.registry`, so new algorithms plug in by name.

Entry points, from highest to lowest level:

* :meth:`Flow.run` -- the whole pipeline on ``config.circuit`` (or a
  given network), returning a :class:`~repro.api.artifact.RunArtifact`.
* :meth:`Flow.prepare` + :meth:`Flow.run(prepared=...)` -- split the
  expensive optimize/map/constrain prefix from the per-method suffix;
  one :class:`PreparedCircuit` serves every method (this is what the
  campaign workers cache).
* :meth:`Flow.scale` -- enter at the ``scale`` stage with an
  already-mapped network and an explicit timing budget.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.api.artifact import RunArtifact, ScalingReport
from repro.api.cache import PreparedCache
from repro.api.config import FlowConfig
from repro.api.registry import get_method
from repro.core.restore import MaterializedDesign, materialize_converters
from repro.core.state import ScaleBaseline, ScalingState
from repro.library.cells import Library
from repro.mapping.mapper import map_network, recover_area, speed_up_sizing
from repro.mapping.match import MatchTable
from repro.netlist.network import Network
from repro.netlist.validate import check_network
from repro.power.activity import Activity, random_activities
from repro.timing.delay import DelayCalculator
from repro.timing.incremental import IncrementalTiming

STAGES = ("optimize", "map", "constrain", "scale", "restore", "measure")
"""Stage execution order.  ``prepare()`` runs the first three;
``run(prepared=...)`` and ``scale()`` run the last three."""

_PREPARE_STAGES = STAGES[:3]
_RUN_STAGES = STAGES[3:]


@dataclass
class PreparedCircuit:
    """A mapped circuit ready for voltage scaling.

    Every method scales ``network`` itself, at the same ``tspec`` and
    ``activity``, so every method starts from the same baseline.
    Scaling never writes the network: rails, converters and resized
    cells live on each method's :class:`~repro.core.state.ScalingState`.
    The first scale of :meth:`Flow.execute` records the baseline as
    :attr:`scale_baseline` (a :class:`~repro.core.state.ScaleBaseline`:
    the flat snapshot and the power before scaling, then the outcome
    of the first CVS), and every later scale with the same library and
    options adopts it at its first CVS.  ``scale_baseline`` is not a
    dataclass field: ``==`` and ``repr`` ignore it and pickling leaves
    it out, so a circuit pickles to the same bytes before and after a
    scale; :class:`~repro.api.cache.PreparedCache` charges it apart.

    ``==`` compares ``network`` by content (its structure and cells),
    so a second prepare of a circuit, or an unpickled copy, equals the
    original when its network, ``tspec`` and activity do.
    """

    name: str
    network: Network
    tspec: float
    min_delay: float
    activity: Activity

    scale_baseline = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("scale_baseline", None)
        return state

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._content() == other._content()

    def _content(self) -> tuple:
        """The fields, with the network as its structure and cells.

        The network's inputs, outputs and every node's name, fanins,
        function and cell in node order; its name and caches are left
        out, and :class:`Network` itself keeps identity equality.
        """
        network = self.network
        return (
            self.name,
            self.tspec,
            self.min_delay,
            self.activity,
            network.inputs,
            network.outputs,
            [
                (node.name, node.fanins, node.function, node.cell)
                for node in network.nodes.values()
            ],
        )


@dataclass
class FlowContext:
    """Everything the stages share while one run is in flight."""

    config: FlowConfig
    library: Library
    match_table: MatchTable | None = None
    prepared: PreparedCircuit | None = None
    network: Network | None = None
    name: str = ""
    min_delay: float = 0.0
    tspec: float = 0.0
    activity: Activity | None = None
    state: ScalingState | None = None
    report: ScalingReport | None = None
    design: MaterializedDesign | None = None
    artifact: RunArtifact | None = None
    scale_runtime_s: float = 0.0


StageFn = Callable[[FlowContext], None]


# -- default stage implementations ------------------------------------
# These reproduce the paper's section-4 setup term for term; the
# rail-equivalence golden (tests/core/test_rail_equivalence.py) pins
# their arithmetic to the pre-refactor seed.


def optimize_stage(ctx: FlowContext) -> None:
    """Technology-independent optimization (``script.rugged`` stand-in)."""
    from repro.opt.script import rugged

    rugged(ctx.network)


def map_stage(ctx: FlowContext) -> None:
    """Minimum-delay technology mapping (``map -n1 -AFG``)."""
    mapped = map_network(ctx.network, ctx.library, match_table=ctx.match_table)
    mapped.name = ctx.name
    ctx.network = mapped


def constrain_stage(ctx: FlowContext) -> None:
    """Fix the timing budget: Dmin, the 20% relaxation, area recovery.

    The covering DP estimates loads, so its raw output is not the true
    minimum-delay circuit: a fanout-style speed-up sizing pass makes
    Dmin honest first, and the relaxation anchors on the achievable
    minimum (ratcheting down when recovery itself uncovers a faster
    point).  The constraint is "the delay of the mapped circuit" after
    the relaxed remap -- the algorithms start with zero slack on the
    remapped critical paths.  Switching activity is measured here so
    every method scores against the same vectors.

    One timing engine serves the whole stage: the sizing, every
    recovery pass and every budget check read and repair it, so the
    circuit is swept once.
    """
    options = ctx.config.options
    engine = IncrementalTiming(
        DelayCalculator(
            ctx.network, ctx.library, po_load=options.po_load, cache=True
        ),
        0.0,
    )
    min_delay = speed_up_sizing(engine)
    achieved = min_delay
    for _ in range(4):
        recover_area(engine, ctx.config.slack_factor * min_delay)
        achieved = engine.worst_delay
        if achieved >= min_delay - 1e-9:
            break
        min_delay = achieved
    ctx.tspec = achieved
    ctx.min_delay = min_delay
    ctx.activity = random_activities(
        ctx.network, n_vectors=options.n_vectors, seed=options.activity_seed
    )


def scale_stage(ctx: FlowContext) -> None:
    """Run the configured scaling method on a fresh :class:`ScalingState`.

    The network is checked (:func:`~repro.netlist.validate.check_network`)
    the first time it is scaled: always under :meth:`Flow.scale`, and
    under :meth:`Flow.execute` while the prepared circuit has no scale
    record yet.  Scaling never writes it, so one check serves every
    later method.  Under :meth:`Flow.execute` (``ctx.prepared`` set)
    the prepared circuit's :attr:`~PreparedCircuit.scale_baseline`
    becomes the state's :attr:`~repro.core.state.ScalingState.baseline`
    when it fits, and supplies the power before scaling; otherwise a
    new record is taken from the state.  :meth:`Flow.scale` builds the
    state from scratch.  A state that misses ``tspec`` before any move
    raises :class:`~repro.timing.incremental.TimingInfeasible`
    (:meth:`~repro.core.state.ScalingState.check_start`), and the
    method never runs.
    """
    from repro.core.moves import get_cost_model

    config = ctx.config
    method = get_method(config.method)
    if not method.multi_rail and ctx.library.n_rails > 2:
        raise ValueError(
            f"scaling method {method.name!r} handles dual-rail libraries "
            f"only, but the library has {ctx.library.n_rails} rails"
        )
    get_cost_model(config.cost_model)  # fail fast on a typo'd model name
    from repro.api.artifact import DEFAULT_COST_MODEL

    if config.cost_model != DEFAULT_COST_MODEL and not method.prices_moves:
        raise ValueError(
            f"scaling method {method.name!r} does not price moves, so "
            f"cost model {config.cost_model!r} cannot influence it; run "
            f"it under the default model instead"
        )
    prepared = ctx.prepared
    record = None if prepared is None else prepared.scale_baseline
    if record is None:
        check_network(ctx.network, require_mapped=True)
    state = ScalingState(
        ctx.network,
        ctx.library,
        ctx.tspec,
        activity=ctx.activity,
        options=config.options,
    )
    if record is not None and record.fits(state):
        state.baseline = record
        power_before = record.power
    else:
        power_before = state.power()
        # The power sweep already timed the state.  An adopted record
        # skips this branch: its state was checked when it was taken,
        # and timing it here would bar run_cvs from adopting the CVS
        # point, which it does only on an untimed state.
        state.check_start()
        if prepared is not None:
            record = ScaleBaseline(state, power_before)
            state.baseline = prepared.scale_baseline = record
    started = time.perf_counter()
    method.run(state, config)
    elapsed = time.perf_counter() - started
    power_after = state.power()
    ctx.state = state
    ctx.scale_runtime_s = elapsed
    ctx.report = ScalingReport(
        method=config.method,
        power_before_uw=power_before.total,
        power_after_uw=power_after.total,
        improvement_pct=power_after.improvement_over(power_before),
        n_gates=state.n_gates,
        n_low=state.n_low,
        low_ratio=state.low_ratio,
        n_converters=len(state.lc_edges),
        n_resized=state.n_resized,
        area_increase_ratio=state.sizing_area_increase_ratio,
        worst_delay_ns=state.timing().worst_delay,
        tspec_ns=ctx.tspec,
        runtime_s=elapsed,
        moves=state.move_stats.as_dict(),
    )


def restore_stage(ctx: FlowContext) -> None:
    """Materialize level shifters when the config asks for an export.

    Off by default: the paper's tables use the virtual converter model,
    and materialization splices real shifter nodes into a copy of the
    network (``ctx.design``) for downstream physical flows.
    """
    if ctx.config.materialize:
        ctx.design = materialize_converters(ctx.state)


def measure_stage(ctx: FlowContext) -> None:
    """Assemble the unified :class:`RunArtifact` from the run's context."""
    config = ctx.config
    gates = sum(1 for n in ctx.network.nodes.values() if not n.is_input)
    ctx.artifact = RunArtifact(
        circuit=config.circuit or ctx.name,
        method=config.method,
        vdd_low=config.vdd_low,
        slack_factor=config.slack_factor,
        rails=config.rails,
        cost_model=config.cost_model,
        status="ok",
        gates=gates,
        org_power_uw=ctx.report.power_before_uw,
        min_delay_ns=ctx.min_delay,
        tspec_ns=ctx.tspec,
        report=ctx.report,
        runtime_s=ctx.scale_runtime_s,
    )


DEFAULT_STAGES: dict[str, StageFn] = {
    "optimize": optimize_stage,
    "map": map_stage,
    "constrain": constrain_stage,
    "scale": scale_stage,
    "restore": restore_stage,
    "measure": measure_stage,
}


class Flow:
    """One configured pipeline instance; cheap to copy, safe to share.

    The library and match table build lazily from the config (or are
    injected for sharing across flows -- the campaign workers pass
    their per-rail-key caches).  ``replace()`` derives a sibling flow
    with config changes, keeping the built library when the rail set is
    unchanged; ``with_stage()`` derives a sibling with one stage
    swapped.

    ``cache`` plugs in a :class:`~repro.api.cache.PreparedCache`: the
    library resolves through it (shared per rail set) and
    :meth:`prepare` consults it before running the expensive prefix
    stages -- this is how the campaign workers and the serving daemon
    keep circuits hot.  The cache keys on the default prepare stages,
    so :meth:`with_stage` siblings deliberately drop it (a custom
    ``optimize``/``map``/``constrain`` stage would poison shared
    entries); :meth:`replace` siblings keep it.
    """

    def __init__(
        self,
        config: FlowConfig,
        *,
        library: Library | None = None,
        match_table: MatchTable | None = None,
        stages: dict[str, StageFn] | None = None,
        cache: PreparedCache | None = None,
    ):
        self.config = config
        self._library = library
        self._match_table = match_table
        self._cache = cache
        self.stages: dict[str, StageFn] = dict(DEFAULT_STAGES)
        if stages:
            unknown = sorted(set(stages) - set(DEFAULT_STAGES))
            if unknown:
                raise ValueError(
                    f"unknown stage(s) {unknown}; stages are {STAGES}"
                )
            self.stages.update(stages)

    # -- construction helpers ---------------------------------------

    @property
    def library(self) -> Library:
        if self._library is None:
            if self._cache is not None:
                self._library, self._match_table = self._cache.library(
                    self.config.rail_key
                )
            else:
                self._library = self.config.build_library()
        return self._library

    @property
    def match_table(self) -> MatchTable | None:
        return self._match_table

    def replace(self, **changes) -> Flow:
        """A sibling flow with config changes applied.

        The built library and match table carry over when the change
        does not touch the rail set (method / circuit / knob changes),
        so per-method flows over one prepared circuit stay cheap.
        """
        new_config = self.config.replace(**changes)
        same_rails = new_config.rail_key == self.config.rail_key
        return Flow(
            new_config,
            library=self._library if same_rails else None,
            match_table=self._match_table if same_rails else None,
            stages=self.stages,
            cache=self._cache,
        )

    def with_stage(self, name: str, fn: StageFn) -> Flow:
        """A sibling flow with one named stage swapped for ``fn``."""
        if name not in DEFAULT_STAGES:
            raise ValueError(f"unknown stage {name!r}; stages are {STAGES}")
        return Flow(
            self.config,
            library=self._library,
            match_table=self._match_table,
            stages={**self.stages, name: fn},
        )

    # -- execution ---------------------------------------------------

    def _context(self) -> FlowContext:
        return FlowContext(
            config=self.config,
            library=self.library,
            match_table=self._match_table,
        )

    def _load(self, source: str | Network | None) -> Network:
        if source is None:
            source = self.config.circuit
        if isinstance(source, Network):
            return source
        if not source:
            raise ValueError(
                "FlowConfig.circuit is empty and no source network was given"
            )
        if os.path.exists(source):
            from repro.netlist.blif import read_blif

            return read_blif(source)
        from repro.bench.mcnc import load_circuit

        return load_circuit(source)

    def prepare(self, source: str | Network | None = None) -> PreparedCircuit:
        """Run optimize / map / constrain; the result serves every method.

        With a ``cache``, a named-circuit preparation (``source`` is
        ``None`` and ``config.circuit`` names the benchmark/BLIF path)
        resolves through :meth:`PreparedCache.prepared
        <repro.api.cache.PreparedCache.prepared>`; an in-memory source
        network always prepares fresh (its identity is not a cache
        key).
        """
        if (
            self._cache is not None
            and source is None
            and self.config.circuit
            and self.stages["optimize"] is optimize_stage
            and self.stages["map"] is map_stage
            and self.stages["constrain"] is constrain_stage
        ):
            return self._cache.prepared(self.config, self._prepare_fresh)
        return self._prepare_fresh(source)

    def _prepare_fresh(
        self, source: str | Network | None = None
    ) -> PreparedCircuit:
        ctx = self._context()
        ctx.network = self._load(source)
        ctx.name = ctx.network.name
        for stage in _PREPARE_STAGES:
            self.stages[stage](ctx)
        # Every method scales this one network.  A row's last bits
        # follow its fanout-set iteration order, and the reference rows
        # and the dual-rail golden pin the order of one copy of the
        # constrained network.
        network = ctx.network.copy()
        # Its adjacency/topological caches are hit by every downstream
        # method; build them once here so they are shared (and so cache
        # hits hand out a pre-warmed network).
        network.warm_caches()
        return PreparedCircuit(
            name=ctx.name,
            network=network,
            tspec=ctx.tspec,
            min_delay=ctx.min_delay,
            activity=ctx.activity,
        )

    def execute(
        self,
        source: str | Network | None = None,
        *,
        prepared: PreparedCircuit | None = None,
    ) -> FlowContext:
        """Run the full pipeline and return the final stage context.

        Use this instead of :meth:`run` when you need more than the
        artifact -- the live :class:`ScalingState` or the materialized
        design.  ``prepared`` skips the prefix stages; every method
        scales ``prepared.network`` itself, which scaling never writes,
        so one prepared circuit serves many methods.  The first scale
        of a prepared circuit records its
        :attr:`~PreparedCircuit.scale_baseline` and later ones with the
        same library and options adopt it at their first CVS, so
        the flat snapshot, the full timing sweep, the power before
        scaling and the first CVS are computed once per circuit, not
        once per method.  A registered method that does not begin with
        ``run_cvs`` gets the same rows but builds its own snapshot and
        runs its own sweep.
        """
        if prepared is None:
            prepared = self.prepare(source)
        ctx = self._context()
        ctx.prepared = prepared
        ctx.network = prepared.network
        ctx.name = prepared.name
        ctx.min_delay = prepared.min_delay
        ctx.tspec = prepared.tspec
        ctx.activity = prepared.activity
        for stage in _RUN_STAGES:
            self.stages[stage](ctx)
        return ctx

    def run(
        self,
        source: str | Network | None = None,
        *,
        prepared: PreparedCircuit | None = None,
    ) -> RunArtifact:
        """The full pipeline; returns the unified result artifact."""
        return self.execute(source, prepared=prepared).artifact

    def scale(
        self,
        network: Network,
        tspec: float,
        *,
        activity: Activity | None = None,
    ) -> tuple[ScalingState, RunArtifact]:
        """Enter at the ``scale`` stage with an already-mapped network.

        The caller's network is checked and never written: voltage
        levels, converters and Gscale's resized cells stay in the
        returned state (:attr:`ScalingState.cells
        <repro.core.state.ScalingState.cells>` holds the resized gates).
        Set ``config.materialize`` or call
        :func:`~repro.core.restore.materialize_converters` to export
        them into a copy of the network.
        """
        ctx = self._context()
        ctx.network = network
        ctx.name = network.name
        ctx.tspec = tspec
        ctx.activity = activity
        for stage in _RUN_STAGES:
            self.stages[stage](ctx)
        return ctx.state, ctx.artifact


__all__ = [
    "DEFAULT_STAGES",
    "STAGES",
    "Flow",
    "FlowContext",
    "PreparedCircuit",
    "constrain_stage",
    "map_stage",
    "measure_stage",
    "optimize_stage",
    "restore_stage",
    "scale_stage",
]
