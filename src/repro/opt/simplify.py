"""Exact two-level minimization (Quine-McCluskey).

Node functions in this flow are small (library cells top out at five
inputs; optimizer nodes are kept under ten), so the exact method is
affordable and sidesteps espresso's heuristics entirely: prime implicant
generation by iterated merging, then an essential-prime extraction with a
greedy completion of the cover.
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


def prime_implicants(table: TruthTable) -> list[str]:
    """All prime implicants of the function, as cube strings.

    Classic Quine-McCluskey merging, but on integer cubes grouped by
    (specified-variable mask, ones count): two cubes can only merge when
    they specify the same variables and their values differ in exactly
    one bit, so grouping eliminates almost all candidate pairs.
    """
    n = table.n_inputs
    full = (1 << n) - 1
    current = {(full, row) for row in table.minterms()}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        used: set[tuple[int, int]] = set()
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for spec, value in current:
            key = (spec, bin(value).count("1"))
            groups.setdefault(key, []).append((spec, value))
        for (spec, ones), group in groups.items():
            uppers = groups.get((spec, ones + 1), ())
            for cube in group:
                for upper in uppers:
                    difference = cube[1] ^ upper[1]
                    if difference & (difference - 1):
                        continue
                    merged.add((spec & ~difference, cube[1] & ~difference))
                    used.add(cube)
                    used.add(upper)
        primes.update(current - used)
        current = merged
    return sorted(_cube_string(n, spec, value) for spec, value in primes)


def _cube_minterms(cube: str) -> list[int]:
    free = [k for k, ch in enumerate(cube) if ch == "-"]
    base = 0
    for k, ch in enumerate(cube):
        if ch == "1":
            base |= 1 << k
    rows = []
    for choice in range(1 << len(free)):
        row = base
        for i, k in enumerate(free):
            if choice >> i & 1:
                row |= 1 << k
        rows.append(row)
    return rows


def _expand_cover(table: TruthTable) -> list[str]:
    """Greedy espresso-style cover for wide functions.

    Each uncovered minterm is expanded to a prime cube by dropping
    variables while the cube stays inside the on-set; fast and prime,
    though not guaranteed minimal like the QM path.
    """
    n = table.n_inputs
    bits = table.bits
    cover: list[str] = []
    remaining = set(table.minterms())
    while remaining:
        row = min(remaining)
        spec = (1 << n) - 1
        value = row
        for k in range(n):
            candidate_spec = spec & ~(1 << k)
            inside = True
            for covered in _int_cube_minterms(n, candidate_spec,
                                              value & candidate_spec):
                if not bits >> covered & 1:
                    inside = False
                    break
            if inside:
                spec = candidate_spec
                value &= spec
        cube = _cube_string(n, spec, value)
        cover.append(cube)
        remaining -= set(_int_cube_minterms(n, spec, value))
    return sorted(cover)


def _int_cube_minterms(n: int, spec: int, value: int) -> list[int]:
    free = [k for k in range(n) if not spec >> k & 1]
    rows = []
    for choice in range(1 << len(free)):
        row = value
        for i, k in enumerate(free):
            if choice >> i & 1:
                row |= 1 << k
        rows.append(row)
    return rows


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

    primes = prime_implicants(table)
    uncovered = set(table.minterms())
    coverage = {cube: set(_cube_minterms(cube)) & uncovered for cube in primes}

    cover: list[str] = []
    for minterm in sorted(uncovered):
        owners = [cube for cube in primes if minterm in coverage[cube]]
        if len(owners) == 1 and owners[0] not in cover:
            cover.append(owners[0])
    covered = set()
    for cube in cover:
        covered |= coverage[cube]
    remaining = uncovered - covered
    while remaining:
        best = max(
            primes,
            key=lambda cube: (len(coverage[cube] & remaining), cube),
        )
        gained = coverage[best] & remaining
        if not gained:
            raise AssertionError("prime cover failed to make progress")
        cover.append(best)
        remaining -= gained
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
