"""Declarative flow configuration: one object, one grid cell, one run.

A :class:`FlowConfig` names everything the paper's flow needs to run on
one circuit -- the circuit, the supply rails, the scaling method, the
timing relaxation, and every :class:`~repro.core.state.ScalingOptions`
knob -- in a single frozen dataclass that round-trips losslessly
through JSON (``loads(dumps(cfg)) == cfg``) and TOML.  Campaign jobs,
CLI invocations, and library calls all describe the same run with the
same object, so a sweep is a list of configs and a reproduction is a
config checked into the repo.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from typing import Any

from repro.core.gscale import DEFAULT_AREA_BUDGET, DEFAULT_MAX_ITER
from repro.core.state import ScalingOptions

DEFAULT_VDD_LOW = 4.3
"""The paper's low rail (chosen "in accordance with our internal
design project")."""

DEFAULT_SLACK_FACTOR = 1.2
"""The paper loosens the minimum delay by 20%."""


def _coerce_options(value: Any) -> ScalingOptions:
    if isinstance(value, ScalingOptions):
        return value
    if isinstance(value, dict):
        known = {f.name for f in fields(ScalingOptions)}
        unknown = sorted(set(value) - known)
        if unknown:
            raise ValueError(
                f"unknown ScalingOptions field(s) {unknown}; "
                f"known fields are {sorted(known)}"
            )
        return ScalingOptions(**value)
    raise TypeError(
        f"options must be a ScalingOptions or a dict, got {type(value)}"
    )


@dataclass(frozen=True)
class FlowConfig:
    """Everything one :class:`~repro.api.flow.Flow` run needs, declared.

    ``circuit`` is a benchmark name (one of the 39 MCNC names) or a
    BLIF file path; an in-memory :class:`~repro.netlist.network.Network`
    is passed to :meth:`Flow.prepare` / :meth:`Flow.run` directly, with
    ``circuit`` left empty.  A non-empty ``rails`` tuple (ordered,
    highest supply first) opens the N-rail MSV flow and replaces the
    classic ``vdd_low`` axis.  ``method`` names any registered
    :class:`~repro.api.registry.ScalingMethod` -- the builtins are
    ``cvs`` / ``dscale`` / ``gscale``, and third-party strategies join
    via :func:`~repro.api.registry.register_method`.  ``materialize``
    asks the flow's ``restore`` stage to splice physical shifter cells
    into an exported netlist (off by default: the paper's tables only
    need the virtual converter model).

    ``cost_model`` names a registered
    :class:`~repro.core.moves.CostModel` that prices candidate moves
    (``paper`` -- the default, the seed arithmetic -- or ``placement``,
    the level-shifter placement-aware model; custom models join via
    :func:`~repro.core.moves.register_cost_model`).  ``non_adjacent``
    and ``retarget_shifters`` enable the N-rail move extensions (direct
    multi-rail demotion, mid-demotion shifter retargeting); both are
    inert on a two-rail library.
    """

    circuit: str = ""
    method: str = "gscale"
    vdd_low: float = DEFAULT_VDD_LOW
    rails: tuple[float, ...] = ()
    slack_factor: float = DEFAULT_SLACK_FACTOR
    max_iter: int = DEFAULT_MAX_ITER
    area_budget: float = DEFAULT_AREA_BUDGET
    materialize: bool = False
    cost_model: str = "paper"
    non_adjacent: bool = False
    retarget_shifters: bool = False
    options: ScalingOptions = field(default_factory=ScalingOptions)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rails", tuple(float(v) for v in self.rails)
        )
        object.__setattr__(self, "options", _coerce_options(self.options))

    # -- derived views ----------------------------------------------

    @property
    def rail_key(self) -> tuple[float, ...]:
        """What a library cache keys on: the full rail set, or the low
        rail alone for the classic dual-Vdd flow."""
        return self.rails if self.rails else (self.vdd_low,)

    @property
    def job_id(self) -> str:
        """The run's store id: :func:`~repro.api.artifact.flow_job_id`
        of the six grid fields (the knobs and options are not in it)."""
        from repro.api.artifact import flow_job_id  # artifact imports us

        return flow_job_id(
            self.circuit,
            self.method,
            self.vdd_low,
            self.slack_factor,
            self.rails,
            self.cost_model,
        )

    def build_library(self):
        """Characterize the COMPASS-class library this config asks for."""
        from repro.library.compass import build_compass_library

        if self.rails:
            return build_compass_library(rails=self.rails)
        return build_compass_library(vdd_low=self.vdd_low)

    def replace(self, **changes: Any) -> FlowConfig:
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    # -- serialization ----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-JSON-types dict (tuples become lists)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "rails":
                value = list(value)
            elif f.name == "options":
                value = dataclasses.asdict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FlowConfig:
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown FlowConfig field(s) {unknown}; "
                f"known fields are {sorted(known)}"
            )
        return cls(**data)

    def dumps(self) -> str:
        """One-line JSON; ``FlowConfig.loads`` round-trips it exactly."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> FlowConfig:
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        """A TOML document; ``FlowConfig.from_toml`` round-trips it."""
        lines = []
        for f in fields(self):
            if f.name == "options":
                continue
            lines.append(f"{f.name} = {_toml_value(getattr(self, f.name))}")
        lines.append("")
        lines.append("[options]")
        for f in fields(ScalingOptions):
            lines.append(
                f"{f.name} = {_toml_value(getattr(self.options, f.name))}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> FlowConfig:
        import tomllib

        return cls.from_dict(tomllib.loads(text))


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_toml_value(float(v)) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)} to TOML")


__all__ = [
    "DEFAULT_SLACK_FACTOR",
    "DEFAULT_VDD_LOW",
    "FlowConfig",
]
