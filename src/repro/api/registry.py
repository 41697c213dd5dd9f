"""Pluggable scaling-method registry.

The paper's three algorithms -- CVS, Dscale, Gscale -- register here as
:class:`ScalingMethod` strategies, and third-party algorithms join the
same way::

    from repro.api import ScalingMethod, register_method

    def run_my_method(state, config):
        ...  # demote gates on `state`, honoring `config` knobs

    register_method(ScalingMethod("mine", run_my_method))

Once registered, a method is reachable from every front door by name:
``FlowConfig(method="mine")``, ``python -m repro run --method mine``
(load the registering module with ``--plugin``), and campaign jobs.

A method's ``run`` callable receives the live
:class:`~repro.core.state.ScalingState` (mutate it: demote gates, add
converter edges, resize cells) and the run's
:class:`~repro.api.config.FlowConfig` (read knobs like ``max_iter`` /
``area_budget``).  Capability flags let the flow reject configurations
a method cannot honor -- ``multi_rail=False`` methods only accept
two-rail libraries.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.cvs import run_cvs
from repro.core.dscale import run_dscale
from repro.core.gscale import run_gscale

BUILTIN_METHODS = ("cvs", "dscale", "gscale")
"""The paper's algorithms, in table-column order.  These are always
registered and cannot be removed (``replace=True`` can still override
one for an experiment)."""


@dataclass(frozen=True)
class ScalingMethod:
    """One voltage-scaling strategy, as the flow's ``scale`` stage sees it.

    ``run(state, config)`` performs the scaling in place on ``state``;
    its return value is ignored by the flow (the measured power / level
    tables on the state are the result).  ``prices_moves`` declares
    that the method consults ``config.cost_model`` to weigh candidate
    moves; the flow rejects a non-default cost model on methods that do
    not (their results could not depend on it, so labeling rows with it
    would fabricate a comparison).  ``batch_pricing`` declares that the
    method prices candidates through the move engine's batched sweeps
    (``check_moves`` / ``price_moves`` / ``profile_resizes``), which
    run vectorized with NumPy -- results are bit-identical to the serial
    loops, the flag only advertises where the batching buys throughput.
    """

    name: str
    run: Callable[..., Any]
    multi_rail: bool = True
    resizes_gates: bool = False
    prices_moves: bool = False
    batch_pricing: bool = False
    description: str = ""


_REGISTRY: dict[str, ScalingMethod] = {}


def register_method(
    method: ScalingMethod, replace: bool = False
) -> ScalingMethod:
    """Make ``method`` reachable by name from every flow front door.

    Registering a second method under an existing name raises unless
    ``replace=True`` -- silent shadowing of ``gscale`` would corrupt
    every downstream table.
    """
    if not method.name:
        raise ValueError("a scaling method needs a non-empty name")
    if not replace and method.name in _REGISTRY:
        raise ValueError(
            f"scaling method {method.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _REGISTRY[method.name] = method
    return method


def unregister_method(name: str) -> None:
    """Remove a custom method (builtins stay; tests clean up with this)."""
    if name in BUILTIN_METHODS:
        raise ValueError(f"built-in method {name!r} cannot be unregistered")
    _REGISTRY.pop(name, None)


def get_method(name: str) -> ScalingMethod:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"method must be one of the registered scaling methods "
            f"{registered_names()}, got {name!r}"
        ) from None


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def registered_names() -> tuple[str, ...]:
    """Every registered method name, builtins first."""
    return tuple(_REGISTRY)


def list_methods() -> tuple[ScalingMethod, ...]:
    return tuple(_REGISTRY.values())


# -- the paper's algorithms -------------------------------------------


def _run_cvs(state, config):
    result = run_cvs(state)
    state.validate()
    return result


def _run_dscale(state, config):
    return run_dscale(
        state,
        cost_model=config.cost_model,
        non_adjacent=config.non_adjacent,
        retarget_shifters=config.retarget_shifters,
    )


def _run_gscale(state, config):
    return run_gscale(
        state, max_iter=config.max_iter, area_budget=config.area_budget
    )


register_method(
    ScalingMethod(
        "cvs",
        _run_cvs,
        description="clustered voltage scaling (reverse-topological "
        "demotion, converters only at rail boundaries)",
    )
)
register_method(
    ScalingMethod(
        "dscale",
        _run_dscale,
        prices_moves=True,
        batch_pricing=True,
        description="MWIS-based demotion of all positive-slack gates "
        "with interior level converters",
    )
)
register_method(
    ScalingMethod(
        "gscale",
        _run_gscale,
        resizes_gates=True,
        batch_pricing=True,
        description="separator-guided gate resizing to open slack, "
        "then CVS-style demotion under an area budget",
    )
)


__all__ = [
    "BUILTIN_METHODS",
    "ScalingMethod",
    "get_method",
    "is_registered",
    "list_methods",
    "register_method",
    "registered_names",
    "unregister_method",
]
