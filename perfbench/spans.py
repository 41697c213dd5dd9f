"""Span tracing for the whole-Flow benchmark, from outside ``src/``.

The tracer wraps a fixed list of coarse public entry points (the Flow
stages, the mapper's cut enumeration, the graph kernels, the move
engine's batch calls, ...) by swapping module, class or dict attributes
for timing wrappers, and puts every original back when the ``with``
block ends.  Nothing called per node is wrapped.

Each wrapped call records one span ``(name, start, end, parent)``;
:func:`span_table` derives per-layer call counts, inclusive and self
time (a span's duration minus the part its child spans cover).  Layers
that carry work counts (antichain sizes, serial-fallback candidates)
add them through a ``note`` hook that sees the call's arguments and
result.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable

# (span name, [(module, attribute path), ...]) -- every place the flow
# looks the callable up.  A function imported by name into several
# modules is patched in each importer, under one span name.  A dotted
# attribute path ("Class.method") patches the class; "DICT[key]"
# patches a dict entry (the Flow copies DEFAULT_STAGES per instance).
LAYERS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("flow.load", (("repro.bench.mcnc", "load_circuit"),)),
    *(
        (
            f"stage.{stage}",
            (
                ("repro.api.flow", f"{stage}_stage"),
                ("repro.api.flow", f"DEFAULT_STAGES[{stage}]"),
            ),
        )
        for stage in ("optimize", "map", "constrain", "scale", "restore",
                      "measure")
    ),
    ("opt.rugged", (("repro.opt.script", "rugged"),)),
    ("mapping.cuts", (("repro.mapping.mapper", "enumerate_cuts"),)),
    (
        "mapping.constrain",
        (
            ("repro.api.flow", "speed_up_sizing"),
            ("repro.api.flow", "recover_area"),
        ),
    ),
    ("netlist.adjacency", (("repro.netlist.network",
                            "Network._build_adjacency"),)),
    (
        "netlist.flat",
        (
            ("repro.netlist.flat", "build_flat"),
            ("repro.timing.incremental", "build_flat"),
        ),
    ),
    ("graphalg.antichain", (("repro.core.dscale", "max_weight_antichain"),)),
    ("graphalg.separator", (("repro.core.gscale", "min_weight_separator"),)),
    ("core.order_pairs", (("repro.core.dscale", "candidate_order_pairs"),)),
    ("core.cleanup", (("repro.core.dscale", "cleanup_converters"),)),
    ("core.cvs", (("repro.api.registry", "run_cvs"),)),
    ("core.dscale", (("repro.api.registry", "run_dscale"),)),
    ("core.gscale", (("repro.api.registry", "run_gscale"),)),
    ("moves.check", (("repro.core.moves", "MoveEngine.check_moves"),)),
    ("moves.price", (("repro.core.moves", "MoveEngine.price_moves"),)),
    ("moves.try", (("repro.core.moves", "MoveEngine.try_move"),)),
    ("timing.split", (("repro.timing.batch", "_split_candidates"),)),
    ("timing.full_build", (("repro.timing.incremental",
                            "IncrementalTiming.__init__"),)),
    (
        "power.estimate",
        (
            ("repro.power.estimate", "estimate_power_calc"),
            ("repro.core.state", "estimate_power_calc"),
        ),
    ),
)


def _note_antichain(counts, args, kwargs, result):
    counts["graphalg.antichain_elems"] += len(args[0])
    counts["graphalg.antichain_pairs"] += len(args[1])


def _note_split(counts, args, kwargs, result):
    counts["timing.candidates"] += len(args[2])
    counts["timing.fallback"] += len(result[4])


NOTES: dict[str, Callable] = {
    "graphalg.antichain": _note_antichain,
    "timing.split": _note_split,
}


class Tracer:
    """Records spans while ``enabled``; a disabled tracer passes through.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original attribute exactly.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.enabled = True
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                note(tracer.counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> Tracer:
        # An entry point a later change removed or renamed is skipped
        # and listed in ``missing``: its layer reads 0, loudly, instead
        # of the traced run failing.
        self.missing = []
        for name, sites in self.layers:
            wrappers: dict[int, Callable] = {}
            for module_name, path in sites:
                try:
                    container, key = _resolve(module_name, path)
                    original, present = _get(container, key)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module_name}:{path}")
                    continue
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(
                        name, original
                    )
                self._saved.append((container, key, present, original))
                _set(container, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            container, key, present, original = self._saved.pop()
            if present:
                _set(container, key, original)
            else:
                delattr(container, key)


def wrapper_cost_s(calls: int = 100_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a plain
    one, fastest of three rounds each."""

    def noop(value):
        return value

    tracer = Tracer(layers=())
    wrapped = tracer._wrap("noop", noop)

    def best(fn) -> float:
        rounds = []
        for _ in range(3):
            tracer.reset()
            started = time.perf_counter()
            for i in range(calls):
                fn(i)
            rounds.append(time.perf_counter() - started)
        return min(rounds)

    return max(0.0, (best(wrapped) - best(noop)) / calls)


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    container: object = importlib.import_module(module_name)
    if path.endswith("]"):
        attr, _, key = path[:-1].partition("[")
        return getattr(container, attr), key
    *parents, key = path.split(".")
    for part in parents:
        container = getattr(container, part)
    return container, key


def _get(container, key: str) -> tuple[object, bool]:
    if isinstance(container, dict):
        return container[key], True
    if isinstance(container, type):
        # Class attributes: take the raw function from the class that
        # defines it, so restoring never leaves a shadowing copy.
        present = key in vars(container)
        return (vars(container)[key] if present
                else getattr(container, key)), present
    return getattr(container, key), True


def _set(container, key: str, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def attribute_snapshot() -> dict[tuple[str, str], object]:
    """Identity of every attribute the tracer touches (for tests)."""
    out = {}
    for _, sites in LAYERS:
        for module_name, path in sites:
            container, key = _resolve(module_name, path)
            out[(module_name, path)] = _get(container, key)[0]
    return out


def span_records(spans) -> list[dict]:
    """Spans as JSON-ready records with derived self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [
        {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "self": (end - start) - child_time[index],
        }
        for index, (name, start, end, parent) in enumerate(spans)
    ]


def span_table(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, inclusive ``total_s`` and ``self_s``.

    A layer's inclusive time counts only its outermost spans, so a
    layer re-entered below itself is not counted twice.
    """
    table: dict[str, dict[str, float]] = {}
    for record in records:
        name = record["name"]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += record["self"]
        parent = record["parent"]
        while parent >= 0 and records[parent]["name"] != name:
            parent = records[parent]["parent"]
        if parent < 0:
            row["total_s"] += record["end"] - record["start"]
    return table
