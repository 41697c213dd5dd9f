"""Technology-independent logic optimization (the `script.rugged` stand-in).

The paper preprocesses every MCNC circuit with SIS's ``script.rugged``
before mapping.  This package provides the reduced equivalent used here:

* :mod:`repro.opt.simplify`  -- exact two-level minimization per node
  (bit-parallel primes on the truth table + essential/greedy cover).
* :mod:`repro.opt.sweep`     -- constant propagation, buffer/double-
  inverter collapsing, dangling-node removal.
* :mod:`repro.opt.eliminate` -- collapse low-value nodes into fanouts.
* :mod:`repro.opt.decompose` -- break wide nodes into 2-input AND/OR/INV
  trees (also builds the mapper's subject graph).
* :mod:`repro.opt.script`    -- the orchestrated pipeline.

Every pass preserves functionality; the test suite checks this with
exhaustive/Monte-Carlo equivalence after each transformation.
"""

from repro.opt.simplify import minimize_cubes, simplify_network
from repro.opt.sweep import sweep
from repro.opt.eliminate import eliminate
from repro.opt.decompose import decompose_network
from repro.opt.script import rugged

__all__ = [
    "minimize_cubes",
    "simplify_network",
    "sweep",
    "eliminate",
    "decompose_network",
    "rugged",
]
