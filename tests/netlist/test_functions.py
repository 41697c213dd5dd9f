"""Unit and property tests for truth-table boolean functions."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.functions import (
    MAX_INPUTS,
    TruthTable,
    all_functions,
    cube_distance,
    parse_minterm,
    random_table,
)

tables = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable(n, bits)
    )
)


class TestConstruction:
    def test_const_zero_and_one(self):
        for n in range(4):
            assert TruthTable.const(n, False).count_ones() == 0
            assert TruthTable.const(n, True).count_ones() == 1 << n

    def test_var_projects_each_input(self):
        table = TruthTable.var(3, 1)
        assert table.evaluate([0, 1, 0]) == 1
        assert table.evaluate([1, 0, 1]) == 0

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.var(2, 2)

    def test_width_cap(self):
        with pytest.raises(ValueError):
            TruthTable(MAX_INPUTS + 1, 0)

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable(1, 4)

    def test_from_rows_round_trip(self):
        rows = [0, 1, 1, 0]
        table = TruthTable.from_rows(rows)
        assert [table.bits >> k & 1 for k in range(4)] == rows

    def test_from_rows_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TruthTable.from_rows([0, 1, 0])

    def test_from_function_matches_manual(self):
        table = TruthTable.from_function(2, lambda a, b: a and not b)
        assert table.evaluate([1, 0]) == 1
        assert table.evaluate([1, 1]) == 0
        assert table.evaluate([0, 0]) == 0

    def test_from_cubes_or_of_cubes(self):
        table = TruthTable.from_cubes(3, ["1-0", "01-"])
        assert table.evaluate([1, 0, 0]) == 1
        assert table.evaluate([0, 1, 1]) == 1
        assert table.evaluate([0, 0, 0]) == 0

    def test_from_cubes_empty_is_const0(self):
        assert TruthTable.from_cubes(2, []).const_value() == 0

    def test_from_cubes_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_cubes(2, ["101"])

    def test_from_cubes_bad_character(self):
        with pytest.raises(ValueError):
            TruthTable.from_cubes(2, ["1x"])

    def test_immutable(self):
        table = TruthTable.var(1, 0)
        with pytest.raises(AttributeError):
            table.bits = 0

    @given(tables)
    def test_pickle_round_trip(self, table):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(table, protocol=protocol))
            assert type(twin) is TruthTable
            assert (twin.n_inputs, twin.bits) == (table.n_inputs, table.bits)
            assert twin == table and hash(twin) == hash(table)
        with pytest.raises(AttributeError):
            twin.bits = 0

    def test_deepcopy(self):
        table = TruthTable.from_cubes(3, ["1-0", "011"])
        twin = copy.deepcopy([table, table])
        assert twin == [table, table]
        assert twin[0] is twin[1]
        assert copy.copy(table) == table

    def test_unpickling_validates(self):
        rebuild, args = TruthTable.var(2, 0).__reduce__()
        assert rebuild(*args) == TruthTable.var(2, 0)
        with pytest.raises(ValueError, match="out of range"):
            rebuild(2, 1 << 4)


class TestGateFamilies:
    def test_and_or_nand_nor(self):
        for n in (1, 2, 3):
            all_ones = [1] * n
            all_zeros = [0] * n
            assert TruthTable.and_(n).evaluate(all_ones) == 1
            assert TruthTable.and_(n).evaluate(all_zeros) == 0
            assert TruthTable.or_(n).evaluate(all_zeros) == 0
            assert TruthTable.nand(n).evaluate(all_ones) == 0
            assert TruthTable.nor(n).evaluate(all_zeros) == 1

    def test_xor_parity(self):
        table = TruthTable.xor(3)
        for row in range(8):
            bits = [row >> k & 1 for k in range(3)]
            assert table.evaluate(bits) == sum(bits) % 2

    def test_xnor_is_inverted_xor(self):
        assert TruthTable.xnor(2) == ~TruthTable.xor(2)

    def test_mux_semantics(self):
        mux = TruthTable.mux()
        # (sel, a, b): sel ? b : a
        assert mux.evaluate([0, 1, 0]) == 1
        assert mux.evaluate([1, 1, 0]) == 0

    def test_majority(self):
        maj = TruthTable.majority()
        assert maj.evaluate([1, 1, 0]) == 1
        assert maj.evaluate([1, 0, 0]) == 0

    def test_identity_and_inverter(self):
        assert TruthTable.identity().evaluate([1]) == 1
        assert TruthTable.inverter().evaluate([1]) == 0


class TestAlgebra:
    def test_de_morgan(self):
        a = TruthTable.var(2, 0)
        b = TruthTable.var(2, 1)
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)

    def test_xor_via_and_or(self):
        a = TruthTable.var(2, 0)
        b = TruthTable.var(2, 1)
        assert (a & ~b) | (~a & b) == TruthTable.xor(2)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            TruthTable.var(2, 0) & TruthTable.var(3, 0)

    def test_type_mismatch_raises(self):
        with pytest.raises(TypeError):
            TruthTable.var(2, 0) & 3

    def test_hash_consistency(self):
        assert hash(TruthTable.xor(2)) == hash(~TruthTable.xnor(2))

    @given(tables)
    @settings(max_examples=60, deadline=None)
    def test_double_negation(self, table):
        assert ~~table == table

    @given(tables, st.data())
    @settings(max_examples=60, deadline=None)
    def test_and_is_pointwise(self, table, data):
        other = data.draw(
            st.integers(0, (1 << (1 << table.n_inputs)) - 1).map(
                lambda bits: TruthTable(table.n_inputs, bits)
            )
        )
        combined = table & other
        for row in range(1 << table.n_inputs):
            values = [row >> k & 1 for k in range(table.n_inputs)]
            assert combined.evaluate(values) == (
                table.evaluate(values) & other.evaluate(values)
            )


class TestStructure:
    def test_support_of_degenerate_function(self):
        # f(a, b) = a ignores b.
        table = TruthTable.from_function(2, lambda a, b: a)
        assert table.support() == (0,)
        assert not table.depends_on(1)

    @staticmethod
    def _cofactor_depends_on(table, index):
        return table.cofactor(index, 0) != table.cofactor(index, 1)

    def test_depends_on_matches_cofactors_on_all_3_input_functions(self):
        for table in all_functions(3):
            expected = tuple(
                k for k in range(3) if self._cofactor_depends_on(table, k)
            )
            assert table.support() == expected
            for k in range(3):
                assert table.depends_on(k) == (k in expected)

    @pytest.mark.parametrize("n", [5, 6])
    def test_depends_on_matches_cofactors_on_random_wide_functions(self, n):
        rng = random.Random(n)
        patterns = [random_table(n, rng) for _ in range(40)]
        # Sparse and degenerate functions exercise the non-support path.
        patterns += [
            TruthTable(n, table.bits & TruthTable.var(n, k).bits)
            for k, table in enumerate(patterns[:n])
        ]
        patterns += [TruthTable.var(n, k) for k in range(n)]
        for table in patterns:
            for k in range(n):
                assert table.depends_on(k) == self._cofactor_depends_on(
                    table, k
                )

    def test_depends_on_index_range(self):
        with pytest.raises(ValueError):
            TruthTable.xor(2).depends_on(2)
        with pytest.raises(ValueError):
            TruthTable.xor(2).depends_on(-1)

    def test_cofactor_removes_dependence(self):
        table = TruthTable.xor(3)
        positive = table.cofactor(1, 1)
        assert not positive.depends_on(1)
        assert positive.evaluate([1, 0, 0]) == 0  # 1 xor 1 xor 0

    def test_cofactor_index_range(self):
        with pytest.raises(ValueError):
            TruthTable.xor(2).cofactor(2, 0)

    def test_shannon_expansion(self):
        table = TruthTable.majority()
        var0 = TruthTable.var(3, 0)
        rebuilt = (var0 & table.cofactor(0, 1)) | (~var0 & table.cofactor(0, 0))
        assert rebuilt == table

    def test_remove_variable(self):
        table = TruthTable.from_function(3, lambda a, b, c: a ^ c)
        smaller = table.remove_variable(1)
        assert smaller.n_inputs == 2
        assert smaller == TruthTable.xor(2)

    def test_remove_variable_rejects_support(self):
        with pytest.raises(ValueError):
            TruthTable.xor(2).remove_variable(0)

    def test_permute_swaps_roles(self):
        mux = TruthTable.mux()  # (sel, a, b)
        swapped = mux.permute([0, 2, 1])  # (sel, b, a)
        assert swapped.evaluate([0, 0, 1]) == 1
        assert swapped.evaluate([1, 0, 1]) == 0

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            TruthTable.xor(2).permute([0, 0])

    def test_compose_builds_aoi(self):
        nand = TruthTable.nand(2)
        # nand(nand(a,b), nand(a,b)) == and(a, b) inverted twice = a & b? no:
        # nand(x, x) == ~x, so this is and(a, b).
        inner = nand
        composed = nand.compose([inner, inner])
        assert composed == TruthTable.and_(2)

    def test_compose_arity_checks(self):
        with pytest.raises(ValueError):
            TruthTable.xor(2).compose([TruthTable.var(1, 0)])

    @given(tables, st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_compose_matches_row_by_row_evaluation(self, table, m, data):
        subs = [
            TruthTable(m, data.draw(st.integers(0, (1 << (1 << m)) - 1)))
            for _ in range(table.n_inputs)
        ]
        expected = TruthTable.from_function(
            m, lambda *xs: table.evaluate([sub.evaluate(xs) for sub in subs])
        )
        assert table.compose(subs) == expected

    def test_minterms_and_count(self):
        table = TruthTable.and_(2)
        assert table.minterms() == [3]
        assert table.count_ones() == 1

    def test_to_cubes_covers_exactly(self):
        table = TruthTable.xor(2)
        rebuilt = TruthTable.from_cubes(2, table.to_cubes())
        assert rebuilt == table


class TestWordEvaluation:
    @given(tables, st.integers(min_value=1, max_value=64), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_word_matches_scalar(self, table, width, rng):
        width_mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(table.n_inputs)]
        packed = table.evaluate_word(words, width_mask)
        for lane in range(width):
            values = [words[k] >> lane & 1 for k in range(table.n_inputs)]
            assert packed >> lane & 1 == table.evaluate(values)

    def test_zero_input_word(self):
        assert TruthTable.const(0, True).evaluate_word([], 0b111) == 0b111
        assert TruthTable.const(0, False).evaluate_word([], 0b111) == 0


class TestHelpers:
    def test_all_functions_count(self):
        assert sum(1 for _ in all_functions(1)) == 4

    def test_random_table_deterministic(self):
        import random

        a = random_table(3, random.Random(7))
        b = random_table(3, random.Random(7))
        assert a == b

    def test_cube_distance(self):
        assert cube_distance("1-0", "110") == 0
        assert cube_distance("10", "01") == 2
        with pytest.raises(ValueError):
            cube_distance("1", "10")

    def test_parse_minterm(self):
        assert parse_minterm("101") == 0b101
        with pytest.raises(ValueError):
            parse_minterm("1-1")

    def test_evaluate_wrong_arity(self):
        with pytest.raises(ValueError):
            TruthTable.xor(2).evaluate([1])

    def test_repr_is_stable(self):
        assert "TruthTable(2" in repr(TruthTable.xor(2))
