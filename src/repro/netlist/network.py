"""The gate-level logic network: a DAG of named nodes (SIS-style).

A :class:`Network` owns a set of :class:`Node` objects keyed by name.
Primary inputs are nodes without a function; every other node computes a
:class:`~repro.netlist.functions.TruthTable` over its ordered fanin list.
Primary outputs name the nodes whose values leave the block.

Before technology mapping nodes carry arbitrary functions; after mapping
each node is bound to a library cell (:attr:`Node.cell`) whose function
matches the node's.  The dual-Vdd algorithms in :mod:`repro.core` treat
the network as read-mostly and keep voltage assignments in a side table,
but level-converter insertion and gate resizing do edit the network.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from repro.netlist.functions import TruthTable


class Node:
    """One vertex of the logic network.

    Attributes
    ----------
    name:
        Unique name within the owning network.
    fanins:
        Ordered list of fanin node names; variable ``k`` of
        :attr:`function` is ``fanins[k]``.
    function:
        Truth table over the fanins, or ``None`` for primary inputs.
    cell:
        Bound library cell (a :class:`repro.library.cells.Cell`) after
        technology mapping, else ``None``.
    """

    __slots__ = ("name", "fanins", "function", "cell")

    def __init__(
        self,
        name: str,
        fanins: list[str],
        function: TruthTable | None,
        cell=None,
    ):
        self.name = name
        self.fanins = list(fanins)
        self.function = function
        self.cell = cell

    @property
    def is_input(self) -> bool:
        return self.function is None

    def __repr__(self) -> str:
        if self.is_input:
            return f"Node({self.name!r}, input)"
        cell = f", cell={self.cell.name!r}" if self.cell is not None else ""
        return f"Node({self.name!r}, fanins={self.fanins!r}{cell})"


class Network:
    """A combinational logic network.

    The class provides the topological iteration, structural editing,
    and simulation primitives that the optimizer, mapper, timer, and
    dual-Vdd passes build on.  Its adjacency caches come in two kinds:

    * the fanout sets behind :meth:`fanouts` stay live: every editing
      method updates just the sets its edit touches, so an optimization
      pass that alternates edits with fanout queries never rescans the
      network;
    * the order-carrying caches (:meth:`topological`,
      :meth:`topo_index`, :meth:`reader_pins` and the reader lists
      behind them) are dropped by every edit and rebuilt lazily by one
      scan on the next query, so the order is always derived from
      scratch.

    :meth:`rewire` is the edit primitive for changing a node's fanins
    and function in place.  Code that assigns :attr:`Node.fanins`
    directly must call :meth:`_invalidate` afterwards, which resets
    every cache.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._fanouts: dict[str, set[str]] | None = None
        self._topo: list[str] | None = None
        self._topo_index: dict[str, int] | None = None
        self._reader_pins: dict[str, tuple[tuple[str, int], ...]] | None = None
        self._readers: dict[str, list[str]] | None = None
        self._in_degree: dict[str, int] | None = None
        self._name_counter = itertools.count()

    # ------------------------------------------------------------------
    # Construction and editing
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        """Drop every adjacency cache, fanout sets included."""
        self._fanouts = None
        self._drop_order()

    def _drop_order(self) -> None:
        """Drop the order-carrying caches after an edit."""
        self._topo = None
        self._topo_index = None
        self._reader_pins = None
        self._readers = None
        self._in_degree = None

    def add_input(self, name: str) -> Node:
        """Declare a primary input node."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(name, [], None)
        self.nodes[name] = node
        self.inputs.append(name)
        if self._fanouts is not None:
            self._fanouts[name] = set()
        self._drop_order()
        return node

    def add_node(
        self, name: str, fanins: Iterable[str], function: TruthTable, cell=None
    ) -> Node:
        """Add an internal node computing ``function`` over ``fanins``."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        fanins = list(fanins)
        self._check_fanins(name, fanins, function)
        node = Node(name, fanins, function, cell)
        self.nodes[name] = node
        fanouts = self._fanouts
        if fanouts is not None:
            fanouts[name] = set()
            for fanin in fanins:
                fanouts[fanin].add(name)
        self._drop_order()
        return node

    def _check_fanins(
        self, name: str, fanins: list[str], function: TruthTable
    ) -> None:
        if function.n_inputs != len(fanins):
            raise ValueError(
                f"node {name!r}: function arity {function.n_inputs} "
                f"!= fanin count {len(fanins)}"
            )
        for fanin in fanins:
            if fanin not in self.nodes:
                raise ValueError(f"node {name!r}: unknown fanin {fanin!r}")

    def set_output(self, name: str) -> None:
        """Mark an existing node as a primary output."""
        if name not in self.nodes:
            raise ValueError(f"unknown node {name!r}")
        if name not in self.outputs:
            self.outputs.append(name)

    def fresh_name(self, prefix: str = "n") -> str:
        """A node name not currently in use."""
        while True:
            name = f"{prefix}{next(self._name_counter)}"
            if name not in self.nodes:
                return name

    def remove_node(self, name: str) -> None:
        """Remove a node that nothing references.

        The node must have no fanouts and must not be a primary output;
        use :meth:`replace_fanin` / :meth:`substitute` first to detach it.
        """
        if name in self.outputs:
            raise ValueError(f"cannot remove primary output {name!r}")
        readers = self.fanouts(name)
        if readers:
            raise ValueError(
                f"cannot remove {name!r}: fanouts {sorted(readers)}"
            )
        if name in self.inputs:
            self.inputs.remove(name)
        fanouts = self._fanouts
        for fanin in self.nodes.pop(name).fanins:
            fanouts[fanin].discard(name)
        del fanouts[name]
        self._drop_order()

    def rewire(
        self,
        name: str,
        fanins: Iterable[str],
        function: TruthTable | None = None,
    ) -> None:
        """Give gate ``name`` new ``fanins`` and optionally a new function.

        The function, new or kept, must have one variable per fanin.
        Only the fanout sets of the old and new fanins are touched.
        """
        node = self.nodes[name]
        if node.is_input:
            raise ValueError(f"cannot rewire primary input {name!r}")
        fanins = list(fanins)
        function = node.function if function is None else function
        self._check_fanins(name, fanins, function)
        fanouts = self._fanouts
        if fanouts is not None:
            for fanin in node.fanins:
                fanouts[fanin].discard(name)
            for fanin in fanins:
                fanouts[fanin].add(name)
        node.fanins = fanins
        node.function = function
        self._drop_order()

    def replace_fanin(self, node_name: str, old: str, new: str) -> None:
        """Rewire every ``old`` fanin of ``node_name`` to ``new``."""
        node = self.nodes[node_name]
        if new not in self.nodes:
            raise ValueError(f"unknown node {new!r}")
        if old not in node.fanins:
            raise ValueError(f"{old!r} is not a fanin of {node_name!r}")
        self.rewire(node_name, [new if f == old else f for f in node.fanins])

    def substitute(self, old: str, new: str) -> None:
        """Redirect every reader of ``old`` (fanouts and POs) to ``new``."""
        if new not in self.nodes:
            raise ValueError(f"unknown node {new!r}")
        for reader in list(self.fanouts(old)):
            self.replace_fanin(reader, old, new)
        self.outputs = [new if out == old else out for out in self.outputs]
        self._drop_order()

    def insert_buffer(
        self,
        driver: str,
        reader: str,
        name: str,
        function: TruthTable,
        cell=None,
    ) -> Node:
        """Insert a single-input node on the ``driver -> reader`` edge.

        Used for level-converter insertion: only the one edge is rewired,
        other fanouts of ``driver`` are untouched.  ``reader`` may be the
        sentinel ``"@output"`` to splice the converter in front of the
        primary-output use of ``driver``.  The edge is checked before
        anything is added, so a rejected call leaves the network as it
        was.
        """
        if function.n_inputs != 1:
            raise ValueError("buffer function must have exactly one input")
        if reader == "@output":
            if driver not in self.outputs:
                raise ValueError(f"{driver!r} is not a primary output")
        elif driver not in self.nodes[reader].fanins:
            raise ValueError(f"{driver!r} is not a fanin of {reader!r}")
        node = self.add_node(name, [driver], function, cell)
        if reader == "@output":
            self.outputs = [
                name if out == driver else out for out in self.outputs
            ]
        else:
            self.replace_fanin(reader, driver, name)
        return node

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    def _build_adjacency(self) -> None:
        """Build the order caches in one scan over the fanin lists.

        One pass fills the edge-exact reader pins, the first-seen
        unique-reader lists, and the unique-fanin in-degree counts
        together.  The unique-reader lists keep first-occurrence order,
        so :meth:`topological` is a pure function of the node insertion
        order and the fanin lists.  The fanout sets are derived from the
        reader lists only when they are missing (a fresh network, or
        after :meth:`_invalidate`); live sets are left as they are.
        """
        reader_pins: dict[str, list[tuple[str, int]]] = {
            name: [] for name in self.nodes
        }
        readers: dict[str, list[str]] = {name: [] for name in self.nodes}
        in_degree: dict[str, int] = dict.fromkeys(self.nodes, 0)
        for node in self.nodes.values():
            name = node.name
            for pin, fanin in enumerate(node.fanins):
                unique = readers[fanin]
                # A node's pins are scanned together, so a repeated
                # fanin finds this node already last in the list.
                if not unique or unique[-1] != name:
                    unique.append(name)
                    in_degree[name] += 1
                reader_pins[fanin].append((name, pin))
        if self._fanouts is None:
            self._fanouts = {
                name: set(unique) for name, unique in readers.items()
            }
        self._reader_pins = {
            name: tuple(pins) for name, pins in reader_pins.items()
        }
        self._readers = readers
        self._in_degree = in_degree

    def fanouts(self, name: str) -> set[str]:
        """Names of nodes that read ``name`` as a fanin.

        The set is live: later edits update it in place, so copy it
        before editing the network while iterating over it.
        """
        if self._fanouts is None:
            self._build_adjacency()
        return self._fanouts[name]

    def topological(self) -> list[str]:
        """Node names in topological order (fanins before fanouts).

        The order is a pure function of the network (insertion-ordered
        adjacency, no set iteration), so identical networks produce
        identical orders in every process regardless of hash
        randomization -- campaign workers rely on this for
        bit-reproducible rows.
        """
        if self._topo is not None:
            return self._topo
        if self._in_degree is None:
            self._build_adjacency()
        in_degree = dict(self._in_degree)
        ready = [name for name, deg in in_degree.items() if deg == 0]
        readers = self._readers
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for fanout in readers[name]:
                in_degree[fanout] -= 1
                if in_degree[fanout] == 0:
                    ready.append(fanout)
        if len(order) != len(self.nodes):
            cyclic = sorted(set(self.nodes) - set(order))
            raise ValueError(
                f"network has a combinational cycle through {cyclic[:5]}"
            )
        self._topo = order
        return order

    def warm_caches(self) -> None:
        """Eagerly build the adjacency and topological caches.

        ``prepare()`` calls this so the one-time O(E) cache
        construction lands in the prepare stage instead of inside the
        first timed query on a fresh network.
        """
        self.topo_index()

    def topo_index(self) -> dict[str, int]:
        """Cached node name -> topological position map.

        Lets callers order an arbitrary node subset topologically in
        O(k log k) instead of filtering the full order in O(V).
        """
        if self._topo_index is None:
            self._topo_index = {
                name: i for i, name in enumerate(self.topological())
            }
        return self._topo_index

    def gates(self) -> list[str]:
        """Internal (non-input) node names in topological order."""
        return [n for n in self.topological() if not self.nodes[n].is_input]

    def reader_pins(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """Cached map: driver name -> ((reader, pin), ...) over all edges.

        The timing sweeps need "which pins read this signal" per driver;
        deriving it per query means scanning every reader's whole fanin
        list (quadratic in fanin degree).  This builds the edge-exact
        adjacency once per network revision.
        """
        if self._reader_pins is None:
            self._build_adjacency()
        return self._reader_pins

    def transitive_fanin(self, roots: Iterable[str]) -> set[str]:
        """All nodes on some path into any root, including the roots."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.nodes[name].fanins)
        return seen

    def transitive_fanout(self, roots: Iterable[str]) -> set[str]:
        """All nodes reachable from any root, including the roots."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.fanouts(name))
        return seen

    def depth(self) -> int:
        """Longest input-to-output path length counted in gates."""
        level: dict[str, int] = {}
        for name in self.topological():
            node = self.nodes[name]
            if node.is_input:
                level[name] = 0
            else:
                level[name] = 1 + max(
                    (level[f] for f in node.fanins), default=0
                )
        return max((level[out] for out in self.outputs), default=0)

    def stats(self) -> dict[str, int]:
        """Summary counts used in reports and tests."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": sum(1 for n in self.nodes.values() if not n.is_input),
            "nets": sum(len(n.fanins) for n in self.nodes.values()),
            "depth": self.depth(),
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, input_values: dict[str, int]) -> dict[str, int]:
        """Zero-delay evaluation of every node for one input assignment."""
        values: dict[str, int] = {}
        for name in self.topological():
            node = self.nodes[name]
            if node.is_input:
                values[name] = 1 if input_values[name] else 0
            else:
                fanin_values = [values[f] for f in node.fanins]
                values[name] = node.function.evaluate(fanin_values)
        return values

    def evaluate_words(
        self, input_words: dict[str, int], width_mask: int
    ) -> dict[str, int]:
        """Bit-parallel zero-delay evaluation over packed vectors."""
        words: dict[str, int] = {}
        for name in self.topological():
            node = self.nodes[name]
            if node.is_input:
                words[name] = input_words[name] & width_mask
            else:
                fanin_words = [words[f] for f in node.fanins]
                words[name] = node.function.evaluate_word(
                    fanin_words, width_mask
                )
        return words

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Network":
        """Deep copy of the structure; cells are shared (they are immutable)."""
        clone = Network(name or self.name)
        for input_name in self.inputs:
            clone.add_input(input_name)
        for node_name in self.topological():
            node = self.nodes[node_name]
            if node.is_input:
                continue
            clone.add_node(
                node_name, list(node.fanins), node.function, node.cell
            )
        for output in self.outputs:
            clone.set_output(output)
        return clone

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Network({self.name!r}, {s['inputs']} in, {s['outputs']} out, "
            f"{s['gates']} gates)"
        )

    def __iter__(self) -> Iterator[Node]:
        for name in self.topological():
            yield self.nodes[name]

    def __len__(self) -> int:
        return len(self.nodes)


__all__ = ["Network", "Node"]
