"""The paper's contribution: dual-Vdd gate-level voltage scaling.

* :mod:`repro.core.state`    -- shared network/levels/converters state.
* :mod:`repro.core.moves`    -- the transactional Move/CostModel engine.
* :mod:`repro.core.cvs`      -- clustered voltage scaling baseline [8].
* :mod:`repro.core.dscale`   -- MWIS-based scaling of all slack (sec. 2).
* :mod:`repro.core.gscale`   -- separator-guided sizing + CVS (sec. 3).
* :mod:`repro.core.restore`  -- converter materialization / export.

The front door that runs them is :class:`repro.api.Flow`.
"""

from repro.core.moves import (
    BUILTIN_COST_MODELS,
    CostModel,
    DemoteMove,
    DropConverterMove,
    Move,
    MoveEngine,
    MoveStats,
    PaperCostModel,
    PlacementAwareCostModel,
    PromoteMove,
    ResizeMove,
    RetargetShifterMove,
    get_cost_model,
    list_cost_models,
    register_cost_model,
    registered_cost_models,
    unregister_cost_model,
)
from repro.core.state import ScalingOptions, ScalingState
from repro.core.cvs import CvsResult, run_cvs
from repro.core.dscale import DscaleResult, run_dscale
from repro.core.gscale import GscaleResult, run_gscale
from repro.core.restore import (
    MaterializedDesign,
    materialize_converters,
    materialized_timing,
)

__all__ = [
    "BUILTIN_COST_MODELS",
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
    "ScalingOptions",
    "ScalingState",
    "CvsResult",
    "run_cvs",
    "DscaleResult",
    "run_dscale",
    "GscaleResult",
    "run_gscale",
    "MaterializedDesign",
    "materialize_converters",
    "materialized_timing",
    "get_cost_model",
    "list_cost_models",
    "register_cost_model",
    "registered_cost_models",
    "unregister_cost_model",
]
