"""repro.api -- the one front door to the dual-/multi-Vdd flow.

Everything the package can do runs through three objects:

* :class:`FlowConfig` -- one declarative, JSON/TOML-round-trippable
  description of a run (circuit, rails, method, slack, options).
* :class:`Flow` -- the pipeline itself: six named, swappable stages
  (``optimize -> map -> constrain -> scale -> restore -> measure``)
  executed over a config; returns a :class:`RunArtifact`.
* the method registry -- CVS / Dscale / Gscale are registered
  :class:`ScalingMethod` strategies, and third-party algorithms join
  via :func:`register_method` without touching the pipeline.

Quickstart::

    from repro.api import Flow, FlowConfig

    flow = Flow(FlowConfig(circuit="C432"))
    prepared = flow.prepare()            # optimize + map + constrain once
    for method in ("cvs", "dscale", "gscale"):
        artifact = flow.replace(method=method).run(prepared=prepared)
        print(method, artifact.report.improvement_pct)
"""

from repro.api.artifact import (
    DEFAULT_COST_MODEL,
    SCHEMA_VERSION,
    CircuitResult,
    RunArtifact,
    ScalingReport,
    artifacts_to_results,
    flow_job_id,
)
from repro.api.cache import (
    CacheStats,
    PreparedCache,
)
from repro.api.config import (
    DEFAULT_SLACK_FACTOR,
    DEFAULT_VDD_LOW,
    FlowConfig,
)
from repro.api.jobs import (
    EVENT_KINDS,
    JOB_STATES,
    JobRequest,
    JobStatus,
    ProgressEvent,
    new_request_id,
)
from repro.api.flow import (
    STAGES,
    Flow,
    FlowContext,
    PreparedCircuit,
)
from repro.api.registry import (
    BUILTIN_METHODS,
    ScalingMethod,
    get_method,
    is_registered,
    list_methods,
    register_method,
    registered_names,
    unregister_method,
)
from repro.core.moves import (
    BUILTIN_COST_MODELS,
    CostModel,
    MoveStats,
    get_cost_model,
    list_cost_models,
    register_cost_model,
    registered_cost_models,
    unregister_cost_model,
)

__all__ = [
    "BUILTIN_COST_MODELS",
    "BUILTIN_METHODS",
    "DEFAULT_COST_MODEL",
    "DEFAULT_SLACK_FACTOR",
    "DEFAULT_VDD_LOW",
    "EVENT_KINDS",
    "JOB_STATES",
    "SCHEMA_VERSION",
    "STAGES",
    "CacheStats",
    "CostModel",
    "Flow",
    "FlowConfig",
    "FlowContext",
    "JobRequest",
    "JobStatus",
    "MoveStats",
    "CircuitResult",
    "PreparedCache",
    "PreparedCircuit",
    "ProgressEvent",
    "RunArtifact",
    "ScalingMethod",
    "ScalingReport",
    "artifacts_to_results",
    "flow_job_id",
    "get_cost_model",
    "get_method",
    "is_registered",
    "list_cost_models",
    "list_methods",
    "register_cost_model",
    "register_method",
    "registered_cost_models",
    "registered_names",
    "unregister_cost_model",
    "unregister_method",
]
