"""The serial timing oracle: arrival / required / slack / critical paths.

``TimingAnalysis`` recomputes the timing of a mapped network under the
*current* voltage levels and converter placement of a
:class:`~repro.timing.delay.DelayCalculator` in one plain sweep per
direction, written for reading rather than speed.  It is the oracle,
not a production path: every production caller -- the constrain
stage, whose one engine the mapper's sizing loops and its budget check
share, and the scaling passes -- runs on
:class:`repro.timing.incremental.IncrementalTiming`, which is tested
bit for bit against this class (``tests/timing/``,
``tests/mapping/test_mapper.py``).  The only other users are
:meth:`repro.core.state.ScalingState.full_timing` (the oracle on an
uncached calculator) and the materialization check in
:mod:`repro.core.restore`.
"""

from __future__ import annotations

import math

from repro.netlist.network import Network
from repro.timing.delay import DelayCalculator, OUTPUT


def trace_critical_path(calc: DelayCalculator, arrival, load) -> list[str]:
    """One worst input-to-output path (node names, PI first).

    ``arrival`` / ``load`` are name-keyed mappings; shared by the full
    analysis and the incremental engine so the backtracking logic lives
    in exactly one place.
    """
    network = calc.network
    if not network.outputs:
        return []
    end = max(
        network.outputs,
        key=lambda out: arrival[out] + calc.edge_extra_delay(out, OUTPUT),
    )
    path = [end]
    current = end
    while True:
        node = network.nodes[current]
        if node.is_input:
            break
        cell = calc.variant(current)
        node_load = load[current]
        best_fanin = None
        best_at = -math.inf
        for pin, fanin in enumerate(node.fanins):
            at_pin = (
                arrival[fanin]
                + calc.edge_extra_delay(fanin, current)
                + cell.pin_delay(pin, node_load)
            )
            if at_pin > best_at:
                best_at = at_pin
                best_fanin = fanin
        path.append(best_fanin)
        current = best_fanin
    path.reverse()
    return path


class TimingAnalysis:
    """One full arrival/required sweep over a mapped network."""

    def __init__(self, calculator: DelayCalculator, tspec: float):
        self.calculator = calculator
        self.network: Network = calculator.network
        self.tspec = tspec
        self.arrival: dict[str, float] = {}
        self.required: dict[str, float] = {}
        self.load: dict[str, float] = {}
        self._compute()

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def _compute(self) -> None:
        calc = self.calculator
        network = self.network
        order = network.topological()

        for name in order:
            self.load[name] = calc.load(name)

        for name in order:
            node = network.nodes[name]
            if node.is_input:
                self.arrival[name] = 0.0
                continue
            cell = calc.variant(name)
            load = self.load[name]
            worst = 0.0
            for pin, fanin in enumerate(node.fanins):
                extra = calc.edge_extra_delay(fanin, name)
                at_pin = self.arrival[fanin] + extra
                worst = max(worst, at_pin + cell.pin_delay(pin, load))
            self.arrival[name] = worst

        for name in reversed(order):
            node = network.nodes[name]
            required = math.inf
            if name in network.outputs:
                required = self.tspec - calc.edge_extra_delay(name, OUTPUT)
            for reader in network.fanouts(name):
                reader_node = network.nodes[reader]
                reader_cell = calc.variant(reader)
                reader_load = self.load[reader]
                extra = calc.edge_extra_delay(name, reader)
                for pin, fanin in enumerate(reader_node.fanins):
                    if fanin != name:
                        continue
                    required = min(
                        required,
                        self.required[reader]
                        - reader_cell.pin_delay(pin, reader_load)
                        - extra,
                    )
            self.required[name] = required

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def slack(self, name: str) -> float:
        return self.required[name] - self.arrival[name]

    @property
    def worst_delay(self) -> float:
        """Latest arrival at any primary output, converters included."""
        calc = self.calculator
        return max(
            (
                self.arrival[out] + calc.edge_extra_delay(out, OUTPUT)
                for out in self.network.outputs
            ),
            default=0.0,
        )

    @property
    def worst_slack(self) -> float:
        return min(
            (self.slack(name) for name in self.network.nodes),
            default=math.inf,
        )

    def meets_timing(self, tolerance: float = 1e-9) -> bool:
        return self.worst_delay <= self.tspec + tolerance

    def critical_path(self) -> list[str]:
        """One worst input-to-output path (node names, PI first)."""
        return trace_critical_path(self.calculator, self.arrival, self.load)

    def nodes_with_slack(self, threshold: float) -> list[str]:
        """Internal nodes whose slack strictly exceeds ``threshold``."""
        return [
            name
            for name in self.network.gates()
            if self.slack(name) > threshold
        ]


__all__ = ["TimingAnalysis", "trace_critical_path"]
