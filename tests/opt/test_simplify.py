"""Quine-McCluskey minimization tests."""

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


def test_primes_of_xor_are_minterms():
    assert prime_implicants(TruthTable.xor(2)) == ["01", "10"]


def test_primes_merge_adjacent_minterms():
    assert prime_implicants(TruthTable.and_(2)) == ["11"]
    assert set(prime_implicants(TruthTable.or_(2))) == {"1-", "-1"}


def test_primes_of_const():
    assert prime_implicants(TruthTable.const(2, False)) == []
    assert prime_implicants(TruthTable.const(2, True)) == ["--"]


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
        n, ["1" + "-" * (n - 1), "-1" + "-" * (n - 2)])
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
    table = TruthTable.from_cubes(3, ["001", "011", "111", "110",
                                      "100", "000"])
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
            3, lambda a, b, e, f=node.function: bool(
                f.bits >> ((b << 1) | a) & 1))
        control_network.rewire(name, node.fanins + ["e"], widened)
    assert simplify_network(control_network) == 2
