"""Experiment driver: the paper's section 4 evaluation flow.

The pipeline itself lives behind :mod:`repro.api` (the ``Flow`` /
``FlowConfig`` / registry front door); this package is the suite- and
campaign-level machinery on top of it.

* :mod:`repro.flow.experiment` -- per-circuit convenience runners
  (``run_prepared`` / ``run_circuit`` / ``run_suite``).
* :mod:`repro.flow.tables`     -- Table 1 / Table 2 assembly, paper
  comparison, and EXPERIMENTS.md rendering.
* :mod:`repro.flow.ablation`   -- parameter sweeps (maxIter, voltage
  pair, area budget, converter cost) beyond the paper's tables.
* :mod:`repro.flow.campaign`   -- parallel fan-out of the sweep (a list
  of ``FlowConfig`` jobs) across worker processes (and machines, via
  ``--shard K/N``) with per-worker library/circuit caches.
* :mod:`repro.flow.store`      -- the append-only JSONL result store
  campaigns stream into (and resume from / merge after sharding).
"""

from repro.flow.campaign import (
    build_jobs,
    rows_to_results,
    run_campaign,
)
from repro.flow.experiment import (
    CircuitResult,
    PreparedCircuit,
    run_circuit,
    run_prepared,
    run_suite,
)
from repro.flow.store import ResultStore
from repro.flow.tables import (
    format_table1,
    format_table2,
    suite_averages,
    write_experiments_md,
)

__all__ = [
    "CircuitResult",
    "PreparedCircuit",
    "ResultStore",
    "build_jobs",
    "rows_to_results",
    "run_campaign",
    "run_circuit",
    "run_prepared",
    "run_suite",
    "format_table1",
    "format_table2",
    "suite_averages",
    "write_experiments_md",
]
