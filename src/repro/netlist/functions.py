"""Immutable truth-table boolean functions.

Node functions in the logic network are stored as truth tables over the
node's ordered fanin list.  A :class:`TruthTable` over ``n`` inputs packs
all ``2**n`` output bits into a single Python integer: bit ``i`` holds the
output for the input assignment whose variable ``k`` equals bit ``k`` of
``i`` (variable 0 is the least-significant selector).

Truth tables are the natural representation here: after technology-
independent optimization every node has a handful of inputs (the synthetic
COMPASS-class library tops out at 4-5 inputs), and integers give us exact,
hashable, allocation-free boolean algebra.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

MAX_INPUTS = 16
"""Hard cap on truth-table width (2**16 output bits)."""


def _mask(n_inputs: int) -> int:
    """All-ones mask covering every row of an ``n_inputs`` truth table."""
    return (1 << (1 << n_inputs)) - 1


@lru_cache(maxsize=None)
def _var_pattern(n_inputs: int, index: int) -> int:
    """Bit pattern of the projection function ``x[index]``.

    Row ``i`` of the table is 1 exactly when bit ``index`` of ``i`` is 1.
    Cached: there are at most 136 distinct patterns for ``n <= 16``.
    """
    bits = 0
    for row in range(1 << n_inputs):
        if row >> index & 1:
            bits |= 1 << row
    return bits


def compose_bits(n: int, bits: int, subs: Sequence[int], m: int) -> int:
    """:meth:`TruthTable.compose` on raw bit patterns.

    ``bits`` is an ``n``-input table and ``subs[k]`` the ``m``-input
    table substituted for variable ``k``; the result is the ``m``-input
    table of the composition.  Nothing is validated: callers pass
    in-range patterns, one per variable.
    """
    full = _mask(m)
    result = 0
    for row in range(1 << n):
        if not bits >> row & 1:
            continue
        term = full
        for k in range(n):
            term &= subs[k] if row >> k & 1 else full ^ subs[k]
            if not term:
                break
        result |= term
    return result


class TruthTable:
    """An immutable boolean function of ``n_inputs`` variables.

    Instances support the bitwise operators (``&``, ``|``, ``^``, ``~``)
    as pointwise boolean algebra between functions over the *same* input
    count, equality, hashing, and structural queries used by the
    optimizer and mapper (support, cofactors, composition).
    """

    __slots__ = ("n_inputs", "bits")

    def __init__(self, n_inputs: int, bits: int):
        if not 0 <= n_inputs <= MAX_INPUTS:
            raise ValueError(f"n_inputs must be in [0, {MAX_INPUTS}], got {n_inputs}")
        mask = _mask(n_inputs)
        if not 0 <= bits <= mask:
            raise ValueError(f"bits 0x{bits:x} out of range for {n_inputs} inputs")
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TruthTable is immutable")

    def __reduce__(self):
        # Default unpickling sets the slots through the raising
        # __setattr__; rebuild through the validating constructor.
        return TruthTable, (self.n_inputs, self.bits)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def const(n_inputs: int, value: bool) -> "TruthTable":
        """Constant 0 or constant 1 over ``n_inputs`` variables."""
        return TruthTable(n_inputs, _mask(n_inputs) if value else 0)

    @staticmethod
    def var(n_inputs: int, index: int) -> "TruthTable":
        """The projection function returning input ``index`` unchanged."""
        if not 0 <= index < n_inputs:
            raise ValueError(f"variable index {index} out of range")
        return TruthTable(n_inputs, _var_pattern(n_inputs, index))

    @staticmethod
    def from_rows(rows: Sequence[int]) -> "TruthTable":
        """Build from an explicit list of ``2**n`` output bits."""
        n_rows = len(rows)
        n_inputs = n_rows.bit_length() - 1
        if 1 << n_inputs != n_rows:
            raise ValueError(f"row count {n_rows} is not a power of two")
        bits = 0
        for i, row in enumerate(rows):
            if row not in (0, 1):
                raise ValueError(f"row value must be 0 or 1, got {row!r}")
            bits |= row << i
        return TruthTable(n_inputs, bits)

    @staticmethod
    def from_function(n_inputs: int, func) -> "TruthTable":
        """Tabulate ``func(bit0, bit1, ...) -> bool`` over all assignments."""
        bits = 0
        for row in range(1 << n_inputs):
            values = tuple(row >> k & 1 for k in range(n_inputs))
            if func(*values):
                bits |= 1 << row
        return TruthTable(n_inputs, bits)

    @staticmethod
    def from_cubes(n_inputs: int, cubes: Iterable[str]) -> "TruthTable":
        """Build a sum-of-products from BLIF-style cube strings.

        Each cube is a string of length ``n_inputs`` over ``{'0','1','-'}``;
        character ``k`` constrains variable ``k``.  The function is the OR
        of all cubes.  An empty iterable yields constant 0.
        """
        bits = 0
        for cube in cubes:
            if len(cube) != n_inputs:
                raise ValueError(
                    f"cube {cube!r} has length {len(cube)}, expected {n_inputs}"
                )
            cube_bits = _mask(n_inputs)
            for k, ch in enumerate(cube):
                if ch == "-":
                    continue
                var = _var_pattern(n_inputs, k)
                if ch == "1":
                    cube_bits &= var
                elif ch == "0":
                    cube_bits &= ~var & _mask(n_inputs)
                else:
                    raise ValueError(f"bad cube character {ch!r} in {cube!r}")
            bits |= cube_bits
        return TruthTable(n_inputs, bits)

    # ------------------------------------------------------------------
    # Common gate functions
    # ------------------------------------------------------------------

    @staticmethod
    def and_(n_inputs: int) -> "TruthTable":
        return TruthTable(n_inputs, 1 << ((1 << n_inputs) - 1))

    @staticmethod
    def or_(n_inputs: int) -> "TruthTable":
        return TruthTable(n_inputs, _mask(n_inputs) & ~1)

    @staticmethod
    def nand(n_inputs: int) -> "TruthTable":
        return ~TruthTable.and_(n_inputs)

    @staticmethod
    def nor(n_inputs: int) -> "TruthTable":
        return ~TruthTable.or_(n_inputs)

    @staticmethod
    def xor(n_inputs: int) -> "TruthTable":
        bits = 0
        for row in range(1 << n_inputs):
            if bin(row).count("1") & 1:
                bits |= 1 << row
        return TruthTable(n_inputs, bits)

    @staticmethod
    def xnor(n_inputs: int) -> "TruthTable":
        return ~TruthTable.xor(n_inputs)

    @staticmethod
    def identity() -> "TruthTable":
        """Single-input buffer."""
        return TruthTable.var(1, 0)

    @staticmethod
    def inverter() -> "TruthTable":
        return ~TruthTable.var(1, 0)

    @staticmethod
    def mux() -> "TruthTable":
        """2:1 multiplexer over inputs ``(sel, a, b)``: sel ? b : a."""
        return TruthTable.from_function(3, lambda s, a, b: b if s else a)

    @staticmethod
    def majority() -> "TruthTable":
        """3-input majority (full-adder carry)."""
        return TruthTable.from_function(3, lambda a, b, c: a + b + c >= 2)

    # ------------------------------------------------------------------
    # Pointwise boolean algebra
    # ------------------------------------------------------------------

    def _check_same_arity(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other.n_inputs != self.n_inputs:
            raise ValueError(
                f"arity mismatch: {self.n_inputs} vs {other.n_inputs} inputs"
            )

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.n_inputs, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.n_inputs, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.n_inputs, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n_inputs, ~self.bits & _mask(self.n_inputs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n_inputs == other.n_inputs
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n_inputs, self.bits))

    def __repr__(self) -> str:
        width = 1 << self.n_inputs
        return f"TruthTable({self.n_inputs}, 0b{self.bits:0{width}b})"

    # ------------------------------------------------------------------
    # Evaluation and structural queries
    # ------------------------------------------------------------------

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate on one assignment; ``values[k]`` is variable ``k``."""
        if len(values) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input values, got {len(values)}"
            )
        row = 0
        for k, value in enumerate(values):
            if value:
                row |= 1 << k
        return self.bits >> row & 1

    def evaluate_word(self, words: Sequence[int], width_mask: int) -> int:
        """Bit-parallel evaluation over packed simulation words.

        ``words[k]`` carries one simulation bit per vector for variable
        ``k``; the return value carries the function output for every
        vector.  ``width_mask`` masks the active vector lanes.  This is
        the workhorse of the random-simulation power estimator.
        """
        if self.n_inputs == 0:
            return width_mask if self.bits & 1 else 0
        result = 0
        # Shannon expansion evaluated as a mux tree over the packed words
        # would recurse; instead accumulate minterm by minterm, which is
        # fine for <= 5-input library cells.
        for row in range(1 << self.n_inputs):
            if not self.bits >> row & 1:
                continue
            lanes = width_mask
            for k in range(self.n_inputs):
                word = words[k]
                if row >> k & 1:
                    lanes &= word
                else:
                    lanes &= ~word
                if not lanes:
                    break
            result |= lanes
        return result & width_mask

    def is_const(self) -> bool:
        return self.bits == 0 or self.bits == _mask(self.n_inputs)

    def const_value(self) -> int | None:
        """0 or 1 for constant functions, ``None`` otherwise."""
        if self.bits == 0:
            return 0
        if self.bits == _mask(self.n_inputs):
            return 1
        return None

    def depends_on(self, index: int) -> bool:
        """True if the function actually depends on variable ``index``.

        Bit-parallel: each row with ``x[index] = 0`` is compared with its
        partner row ``2**index`` above it; no cofactor is built.
        """
        if not 0 <= index < self.n_inputs:
            raise ValueError(f"variable index {index} out of range")
        n = self.n_inputs
        low_rows = ~_var_pattern(n, index) & _mask(n)
        return bool(((self.bits >> (1 << index)) ^ self.bits) & low_rows)

    def support(self) -> tuple[int, ...]:
        """Indices of variables the function truly depends on."""
        return tuple(k for k in range(self.n_inputs) if self.depends_on(k))

    def cofactor(self, index: int, value: int) -> "TruthTable":
        """Restrict variable ``index`` to ``value``; arity is unchanged.

        The resulting table no longer depends on variable ``index``.
        """
        if not 0 <= index < self.n_inputs:
            raise ValueError(f"variable index {index} out of range")
        var = _var_pattern(self.n_inputs, index)
        keep = var if value else ~var & _mask(self.n_inputs)
        stride = 1 << index
        selected = self.bits & keep
        if value:
            other = selected >> stride
        else:
            other = selected << stride
        return TruthTable(self.n_inputs, selected | other)

    def remove_variable(self, index: int) -> "TruthTable":
        """Drop a variable the function does not depend on, shrinking arity."""
        if self.depends_on(index):
            raise ValueError(f"function depends on variable {index}")
        rows = []
        for row in range(1 << (self.n_inputs - 1)):
            low = row & ((1 << index) - 1)
            high = row >> index << (index + 1)
            rows.append(self.bits >> (high | low) & 1)
        return TruthTable.from_rows(rows)

    def permute(self, order: Sequence[int]) -> "TruthTable":
        """Reorder variables: new variable ``k`` is old variable ``order[k]``."""
        if sorted(order) != list(range(self.n_inputs)):
            raise ValueError(f"order {order!r} is not a permutation")
        rows = []
        for row in range(1 << self.n_inputs):
            old_row = 0
            for new_k, old_k in enumerate(order):
                if row >> new_k & 1:
                    old_row |= 1 << old_k
            rows.append(self.bits >> old_row & 1)
        return TruthTable.from_rows(rows)

    def compose(self, substitutions: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute a function for each variable.

        All substitution tables must share one arity ``m``; the result is
        an ``m``-input table computing ``self(sub_0(x), ..., sub_{n-1}(x))``.
        """
        if len(substitutions) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} substitutions, got {len(substitutions)}"
            )
        if self.n_inputs == 0:
            raise ValueError("cannot compose a 0-input function")
        m = substitutions[0].n_inputs
        for sub in substitutions:
            if sub.n_inputs != m:
                raise ValueError("substitutions must share one arity")
        subs = [sub.bits for sub in substitutions]
        return TruthTable(m, compose_bits(self.n_inputs, self.bits, subs, m))

    def minterms(self) -> list[int]:
        """Rows on which the function is 1, ascending."""
        return [row for row in range(1 << self.n_inputs) if self.bits >> row & 1]

    def count_ones(self) -> int:
        """Number of satisfying assignments."""
        return bin(self.bits).count("1")

    def to_cubes(self) -> list[str]:
        """A (non-minimal) cube list: one cube per minterm.

        :func:`repro.opt.simplify.minimize_cubes` produces minimal covers;
        this method is the simple exact fallback used by the BLIF writer.
        """
        cubes = []
        for row in self.minterms():
            cube = "".join("1" if row >> k & 1 else "0" for k in range(self.n_inputs))
            cubes.append(cube)
        return cubes


def all_functions(n_inputs: int):
    """Yield every boolean function of ``n_inputs`` variables (test helper)."""
    for bits in range(1 << (1 << n_inputs)):
        yield TruthTable(n_inputs, bits)


def random_table(n_inputs: int, rng) -> TruthTable:
    """Uniformly random function over ``n_inputs`` variables."""
    return TruthTable(n_inputs, rng.getrandbits(1 << n_inputs))


def cube_distance(a: str, b: str) -> int:
    """Number of positions where two equal-length cubes conflict (0/1)."""
    if len(a) != len(b):
        raise ValueError("cubes must have equal length")
    return sum(
        1
        for ca, cb in zip(a, b)
        if ca != "-" and cb != "-" and ca != cb
    )


def parse_minterm(cube: str) -> int:
    """Convert a fully-specified cube string to its row index."""
    row = 0
    for k, ch in enumerate(cube):
        if ch == "1":
            row |= 1 << k
        elif ch != "0":
            raise ValueError(f"cube {cube!r} is not fully specified")
    return row


__all__ = [
    "MAX_INPUTS",
    "TruthTable",
    "all_functions",
    "compose_bits",
    "random_table",
    "cube_distance",
    "parse_minterm",
]
