"""Switching-activity extraction.

Activities are reported as *transitions per clock cycle* per net
(``toggles``); the 0-to-1 rate of the paper's eq. (1) is half of that
under random data.  Activities depend only on the logic -- not on
voltages, sizes, or converters -- so the dual-Vdd passes compute them
once per circuit and reuse them throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from repro.netlist.network import Network

_LANES = 64
"""Vectors per draw chunk; the draw order fixes every sampled activity."""


@dataclass(frozen=True)
class Activity:
    """Per-net switching statistics.

    Attributes
    ----------
    toggles:
        Expected transitions per clock cycle for every net.
    probability:
        Probability of the net being logic 1.
    n_vectors:
        Number of random vectors behind the estimate (0 for the
        probabilistic method).
    """

    toggles: Mapping[str, float]
    probability: Mapping[str, float]
    n_vectors: int = 0

    def rate01(self, name: str) -> float:
        """The paper's ``a(0->1)``: rising transitions per cycle."""
        return self.toggles[name] / 2.0


def random_activities(
    network: Network,
    n_vectors: int = 512,
    seed: int = 1999,
    input_probability: float = 0.5,
) -> Activity:
    """Monte-Carlo zero-delay activity (the SIS-style random simulation).

    Applies ``n_vectors`` independent random vectors and counts
    transitions between consecutive vectors.  The draws are taken in
    64-vector chunks (chunk, then input, then vector), and the network
    is evaluated once, bit-parallel, on one ``n_vectors``-bit word per
    net.
    """
    if n_vectors < 2:
        raise ValueError("need at least two vectors to count transitions")
    inputs = network.inputs
    n_inputs = len(inputs)
    # ``random()`` never returns -1.0: the sentinel only ends the
    # iterator, and each ``count`` stops it first.
    draws = iter(random.Random(seed).random, -1.0)
    chunks = []
    for start in range(0, n_vectors, _LANES):
        width = min(_LANES, n_vectors - start)
        chunk = np.fromiter(draws, float, count=n_inputs * width)
        chunks.append(chunk.reshape(n_inputs, width) < input_probability)
    packed = np.packbits(
        np.concatenate(chunks, axis=1), axis=1, bitorder="little"
    )
    input_words = {
        name: int.from_bytes(row.tobytes(), "little")
        for name, row in zip(inputs, packed)
    }
    mask = (1 << n_vectors) - 1
    words = network.evaluate_words(input_words, mask)
    cycles = n_vectors - 1
    toggles = {}
    probability = {}
    for name in network.nodes:
        word = words[name]
        toggles[name] = ((word ^ word >> 1) & mask >> 1).bit_count() / cycles
        probability[name] = word.bit_count() / n_vectors
    return Activity(
        toggles=toggles, probability=probability, n_vectors=n_vectors
    )


def probabilistic_activities(
    network: Network, input_probability: float = 0.5
) -> Activity:
    """Analytic activity under spatial/temporal independence.

    Signal probabilities propagate through each node's truth table
    assuming independent fanins; the transition rate of a net with
    1-probability ``p`` under temporally independent cycles is
    ``2 p (1 - p)``.  Fast and deterministic; slightly optimistic on
    reconvergent logic, which is why the random method is the default.
    """
    probability: dict[str, float] = {}
    for name in network.topological():
        node = network.nodes[name]
        if node.is_input:
            probability[name] = input_probability
            continue
        p = 0.0
        fanin_probs = [probability[f] for f in node.fanins]
        for row in node.function.minterms():
            term = 1.0
            for k, fanin_p in enumerate(fanin_probs):
                term *= fanin_p if row >> k & 1 else 1.0 - fanin_p
            p += term
        probability[name] = p
    toggles = {name: 2.0 * p * (1.0 - p) for name, p in probability.items()}
    return Activity(toggles=toggles, probability=probability, n_vectors=0)


__all__ = ["Activity", "random_activities", "probabilistic_activities"]
