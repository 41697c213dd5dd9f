"""Exact two-level minimization on integer truth tables.

Node functions in this flow are small (library cells top out at five
inputs; optimizer nodes are kept under ten), so the exact method is
affordable and sidesteps espresso's heuristics entirely.  The prime
implicants come from bitwise algebra on the table's integer ``bits``
(implicit primes in the style of Coudert & Madre, DAC 1992): one AND
per set of free variables tests every cube with that free set at once.
The cover is the essential primes plus a greedy completion, with every
cube carried as its integer row mask.
"""

from __future__ import annotations

from repro.netlist.functions import TruthTable
from repro.netlist.network import Network

_QM_LIMIT = 9
"""Maximum input count for exact minimization; wider functions use the
greedy expand cover (espresso-style), which is prime but not minimal."""


def _cube_string(n: int, spec: int, value: int) -> str:
    """Render an integer cube (specified-mask, values) as 0/1/- text."""
    chars = []
    for k in range(n):
        if not spec >> k & 1:
            chars.append("-")
        elif value >> k & 1:
            chars.append("1")
        else:
            chars.append("0")
    return "".join(chars)


def _primes(n: int, bits: int) -> list[tuple[str, int]]:
    """Sorted ``(cube, row mask)`` pairs of every prime implicant.

    ``planes[free]`` has bit r set when the cube whose free variables
    are the set bits of ``free``, anchored at row r (r is 0 on every
    free variable), lies inside the on-set.  Freeing one more variable
    k ANDs the plane with itself shifted down by ``2**k``.  A cube is
    prime when freeing no further variable keeps it an implicant.
    """
    full = (1 << (1 << n)) - 1
    low = [full ^ TruthTable.var(n, k).bits for k in range(n)]
    planes = [bits] * (1 << n)
    for free in range(1, 1 << n):
        k = (free & -free).bit_length() - 1
        plane = planes[free ^ (1 << k)]
        planes[free] = plane & (plane >> (1 << k)) & low[k]
    primes = []
    every = (1 << n) - 1
    for free, plane in enumerate(planes):
        for k in range(n):
            if plane and not free >> k & 1:
                wider = planes[free | 1 << k]
                plane &= ~(wider | wider << (1 << k))
        while plane:
            anchor = plane & -plane
            plane ^= anchor
            row = anchor.bit_length() - 1
            mask = anchor
            for k in range(n):
                if free >> k & 1:
                    mask |= mask << (1 << k)
            primes.append((_cube_string(n, every ^ free, row), mask))
    primes.sort()
    return primes


def prime_implicants(table: TruthTable) -> list[str]:
    """All prime implicants of the function, as sorted cube strings.

    Computed on the integer truth table: for each set of free variables
    one bitwise AND marks every anchor row whose cube is an implicant,
    and a cube is kept when no wider cube around it is one too.
    """
    return [cube for cube, _ in _primes(table.n_inputs, table.bits)]


def _expand_cover(table: TruthTable) -> list[str]:
    """Greedy espresso-style cover for wide functions.

    Each uncovered minterm is expanded to a prime cube by dropping
    variables while the cube stays inside the on-set; fast and prime,
    though not guaranteed minimal like the exact path.
    """
    n = table.n_inputs
    bits = table.bits
    cover: list[str] = []
    remaining = bits
    while remaining:
        row = (remaining & -remaining).bit_length() - 1
        spec = (1 << n) - 1
        mask = 1 << row
        for k in range(n):
            step = 1 << k
            wider = mask | (mask >> step if row >> k & 1 else mask << step)
            if not wider & ~bits:
                spec &= ~(1 << k)
                mask = wider
        cover.append(_cube_string(n, spec, row))
        remaining &= ~mask
    return sorted(cover)


def minimize_cubes(table: TruthTable) -> list[str]:
    """A minimal (prime, irredundant) sum-of-products cover.

    Essential primes are taken first; remaining minterms are covered
    greedily by the prime covering the most of them (ties broken
    lexicographically for determinism).  Constant 0 yields an empty
    cover; constant 1 yields the single all-don't-care cube.
    """
    n = table.n_inputs
    const = table.const_value()
    if const == 0:
        return []
    if const == 1:
        return ["-" * n]
    if n > _QM_LIMIT:
        return _expand_cover(table)

    primes = _primes(n, table.bits)
    once = twice = 0
    for _, mask in primes:
        twice |= once & mask
        once |= mask
    sole = once & ~twice
    cover, remaining = [], table.bits
    for cube, mask in primes:
        if mask & sole:
            cover.append(cube)
            remaining &= ~mask
    while remaining:
        best, mask = max(
            primes,
            key=lambda prime: ((prime[1] & remaining).bit_count(), prime[0]),
        )
        if not mask & remaining:
            raise AssertionError("prime cover failed to make progress")
        cover.append(best)
        remaining &= ~mask
    return sorted(cover)


def literal_count(cubes: list[str]) -> int:
    """Specified-literal count of a cover (the SIS cost function)."""
    return sum(len(cube) - cube.count("-") for cube in cubes)


def simplify_network(network: Network) -> int:
    """Re-express every node minimally; drop unused fanin variables.

    Returns the number of nodes whose function or fanin list changed.
    The function itself is untouched -- only redundant dependencies and
    cover redundancy go away -- so equivalence is structural.
    """
    changed = 0
    for name in network.gates():
        node = network.nodes[name]
        support = node.function.support()
        if len(support) != node.function.n_inputs:
            table = node.function
            fanins = list(node.fanins)
            for index in sorted(range(table.n_inputs), reverse=True):
                if index not in support:
                    table = table.cofactor(index, 0).remove_variable(index)
                    fanins.pop(index)
            network.rewire(name, fanins, table)
            changed += 1
    return changed


__all__ = [
    "prime_implicants",
    "minimize_cubes",
    "literal_count",
    "simplify_network",
]
