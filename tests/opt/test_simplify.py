"""Exact two-level minimization tests."""

from itertools import product
from random import Random

from hypothesis import given, settings, strategies as st

from repro.netlist.functions import TruthTable, all_functions
from repro.opt.simplify import (
    literal_count,
    minimize_cubes,
    prime_implicants,
    simplify_network,
)

small_tables = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable(n, bits)
    )
)

wide_tables = st.integers(min_value=10, max_value=11).flatmap(
    lambda n: st.randoms(use_true_random=False).map(
        lambda rng: TruthTable(n, rng.getrandbits(1 << n))
    )
)


def _seeded_table(n, seed, density):
    rng = Random(seed)
    ones = [row for row in range(1 << n) if rng.random() < density]
    return TruthTable(n, sum(1 << row for row in ones))


def tables(min_n, max_n):
    """Random tables of min_n..max_n inputs: rows drawn at a random
    density, or an OR of a few random cubes (wide primes, cycles)."""
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.one_of(
            st.builds(
                _seeded_table,
                st.just(n),
                st.integers(min_value=0, max_value=2**32 - 1),
                st.sampled_from((0.1, 0.5, 0.8, 0.95)),
            ),
            st.lists(
                st.text(alphabet="01-", min_size=n, max_size=n), max_size=12
            ).map(lambda cubes: TruthTable.from_cubes(n, cubes)),
        )
    )


def _brute_force_primes(table):
    """Every maximal implicant, found among all 3**n cubes.

    An implicant is maximal exactly when freeing any one of its
    specified variables leaves the on-set.
    """
    n = table.n_inputs
    implicants = {
        cube
        for cube in map("".join, product("-01", repeat=n))
        if not TruthTable.from_cubes(n, [cube]).bits & ~table.bits
    }
    return sorted(
        cube
        for cube in implicants
        if not any(
            cube[:k] + "-" + cube[k + 1 :] in implicants
            for k in range(n)
            if cube[k] != "-"
        )
    )


def _pairwise_primes(table):
    """Quine-McCluskey primes by pairwise merging of integer cubes
    grouped by (specified mask, ones count)."""
    n = table.n_inputs
    full = (1 << n) - 1
    current = {(full, row) for row in table.minterms()}
    primes = set()
    while current:
        merged, used, groups = set(), set(), {}
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
    return sorted(
        "".join(
            "-" if not spec >> k & 1 else "1" if value >> k & 1 else "0"
            for k in range(n)
        )
        for spec, value in primes
    )


def _cube_minterms(cube):
    free = [k for k, ch in enumerate(cube) if ch == "-"]
    base = sum(1 << k for k, ch in enumerate(cube) if ch == "1")
    rows = []
    for choice in range(1 << len(free)):
        row = base
        for i, k in enumerate(free):
            if choice >> i & 1:
                row |= 1 << k
        rows.append(row)
    return rows


def _set_based_cover(table):
    """Essential primes, then a greedy completion, on sets of minterms."""
    n = table.n_inputs
    const = table.const_value()
    if const == 0:
        return []
    if const == 1:
        return ["-" * n]
    primes = _pairwise_primes(table)
    uncovered = set(table.minterms())
    coverage = {
        cube: set(_cube_minterms(cube)) & uncovered for cube in primes
    }
    cover = []
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
        cover.append(best)
        remaining -= coverage[best]
    return sorted(cover)


def test_primes_of_xor_are_minterms():
    assert prime_implicants(TruthTable.xor(2)) == ["01", "10"]


def test_primes_merge_adjacent_minterms():
    assert prime_implicants(TruthTable.and_(2)) == ["11"]
    assert set(prime_implicants(TruthTable.or_(2))) == {"1-", "-1"}


def test_primes_of_const():
    assert prime_implicants(TruthTable.const(2, False)) == []
    assert prime_implicants(TruthTable.const(2, True)) == ["--"]
    assert prime_implicants(TruthTable.const(0, True)) == [""]


@given(tables(1, 6))
@settings(max_examples=150, deadline=None)
def test_primes_match_brute_force(table):
    assert prime_implicants(table) == _brute_force_primes(table)


@given(tables(7, 9))
@settings(max_examples=12, deadline=None)
def test_primes_match_pairwise_merge_on_wide_tables(table):
    assert prime_implicants(table) == _pairwise_primes(table)


@given(tables(1, 9))
@settings(max_examples=60, deadline=None)
def test_cover_matches_set_based_selection(table):
    assert minimize_cubes(table) == _set_based_cover(table)


def test_minimize_consts():
    assert minimize_cubes(TruthTable.const(3, False)) == []
    assert minimize_cubes(TruthTable.const(3, True)) == ["---"]
    assert minimize_cubes(TruthTable.const(0, True)) == [""]


def test_minimize_classic_example():
    # f = a'b + ab = b.
    table = TruthTable.from_cubes(2, ["01", "11"])
    assert minimize_cubes(table) == ["-1"]


def test_minimize_majority_needs_three_cubes():
    cubes = minimize_cubes(TruthTable.majority())
    assert sorted(cubes) == ["-11", "1-1", "11-"]


def test_literal_count():
    assert literal_count(["1-0", "-11"]) == 4
    assert literal_count([]) == 0


@given(small_tables)
@settings(max_examples=120, deadline=None)
def test_minimized_cover_is_exact(table):
    cubes = minimize_cubes(table)
    assert TruthTable.from_cubes(table.n_inputs, cubes) == table


@given(small_tables)
@settings(max_examples=80, deadline=None)
def test_cover_cubes_are_primes(table):
    if table.is_const():
        return
    primes = set(prime_implicants(table))
    for cube in minimize_cubes(table):
        assert cube in primes


def test_exhaustive_exactness_for_two_inputs():
    for table in all_functions(2):
        cubes = minimize_cubes(table)
        assert TruthTable.from_cubes(2, cubes) == table


@given(wide_tables)
@settings(max_examples=5, deadline=None)
def test_wide_fallback_cover_is_exact(table):
    cubes = minimize_cubes(table)
    assert TruthTable.from_cubes(table.n_inputs, cubes) == table


def test_minimal_for_known_optimum():
    # One 4-cube function whose minimum cover size is 2.
    table = TruthTable.from_cubes(3, ["000", "001", "110", "111"])
    assert len(minimize_cubes(table)) == 2


def test_simplify_network_drops_false_dependencies(control_network):
    # Rebuild p1 = a & b as a 3-input function ignoring the third input.
    and_ab = TruthTable.from_function(3, lambda a, b, e: a and b)
    control_network.rewire("p1", ["a", "b", "e"], and_ab)
    changed = simplify_network(control_network)
    assert changed == 1
    assert control_network.nodes["p1"].fanins == ["a", "b"]
    assert control_network.nodes["p1"].function == TruthTable.and_(2)


def test_simplify_network_noop_on_clean_network(control_network):
    assert simplify_network(control_network) == 0


# -- edge cases: the wide greedy cover and degenerate networks ---------
def test_expand_cover_threshold_routes_wide_functions():
    """n > 9 takes the greedy espresso-style path; the cover is still
    prime-per-cube (each cube lies inside the on-set maximally)."""
    from repro.opt.simplify import _QM_LIMIT, _expand_cover

    n = _QM_LIMIT + 1
    # A function with obvious wide structure: OR of the first two vars.
    table = TruthTable.from_cubes(
        n, ["1" + "-" * (n - 1), "-1" + "-" * (n - 2)]
    )
    cubes = minimize_cubes(table)
    assert TruthTable.from_cubes(n, cubes) == table
    assert cubes == sorted(_expand_cover(table))


def test_expand_cover_single_minterm():
    from repro.opt.simplify import _expand_cover

    n = 10
    table = TruthTable.from_cubes(n, ["1" * n])
    assert _expand_cover(table) == ["1" * n]


def test_greedy_completion_beyond_essential_primes():
    """A cyclic cover (no essential primes) still completes exactly."""
    # The classic 6-minterm cycle on 3 vars: every minterm is covered
    # by exactly two primes, so there are no essential primes at all.
    table = TruthTable.from_cubes(
        3, ["001", "011", "111", "110", "100", "000"]
    )
    cubes = minimize_cubes(table)
    assert TruthTable.from_cubes(3, cubes) == table
    primes = set(prime_implicants(table))
    assert set(cubes) <= primes


def test_simplify_network_handles_fully_degenerate_node(control_network):
    """A node ignoring every fanin shrinks to a zero-input constant."""
    node = control_network.nodes["p1"]
    control_network.rewire("p1", node.fanins, TruthTable.const(2, True))
    changed = simplify_network(control_network)
    assert changed >= 1
    assert node.fanins == []
    assert node.function.const_value() == 1


def test_simplify_network_counts_every_changed_node(control_network):
    for name in ("p1", "p2"):
        node = control_network.nodes[name]
        widened = TruthTable.from_function(
            3,
            lambda a, b, e, f=node.function: bool(
                f.bits >> ((b << 1) | a) & 1
            ),
        )
        control_network.rewire(name, node.fanins + ["e"], widened)
    assert simplify_network(control_network) == 2
