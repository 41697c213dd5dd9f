"""Flow-based combinatorial algorithms used by the dual-Vdd passes.

* :mod:`repro.graphalg.maxflow`   -- one integer-array Dinic max-flow
  kernel, levelled from the sink, shared by both passes below.  The
  paper cites Edmonds-Karp (Cormen ch. 27) for its separator; Dinic is
  only faster, since any maximum flow leaves the same unique minimal
  residual cut, which is all either pass reads.
* :mod:`repro.graphalg.separator` -- minimum-weight vertex separator via
  node splitting + max-flow min-cut (Gscale's resizing-target selection).
* :mod:`repro.graphalg.antichain` -- maximum-weight antichain of a DAG's
  reachability order via minimum flow with lower bounds; this is the
  "maximum-weighted independent set on a transitive graph" of
  Kagaris-Tragoudas that Dscale uses.
"""

from repro.graphalg.separator import min_weight_separator
from repro.graphalg.antichain import max_weight_antichain

__all__ = ["min_weight_separator", "max_weight_antichain"]
