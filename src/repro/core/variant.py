"""The variant index: one preorder pass over a variant tree.

GP keeps asking the same questions of each parent's variant tree: where
its fault nodes are, which nodes may replace or follow them, which
statements sit in a block's statement list, which expressions are
assignment targets, and where a node sits so that a patch can edit it.
ASTOR-style, the answers live with the variant instead of being found
by walking the tree again: :class:`VariantIndex` records the tree once,
in preorder, as parallel arrays, and every query reads those arrays.

An index is memoised on the patch whose variant it describes, beside the
harness's ``_applied`` tree (:func:`patch_index`), so Algorithm 2, the
operators and the application of the patch's children share one pass.
Like the tree, an index is never mutated after it is built; derived
views (fix-localization sources, Algorithm 2's triggers, template
candidates) are computed from the arrays on first use and kept in
:attr:`VariantIndex.views`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import Callable, Iterable, TypeVar

from ..hdl import ast

#: One step down a tree: the child in ``parent.<name>`` (index None) or
#: in ``parent.<name>[index]``.
Step = tuple[ast.Node, str, "int | None"]

_ASSIGNMENTS = (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)

T = TypeVar("T")


class VariantIndex:
    """One tree in preorder, with each node's id, parent slot and extent.

    Position ``p`` is the ``p``-th node in preorder (the root is 0).
    ``nodes[p:ends[p]]`` is the subtree under ``nodes[p]``, and
    ``parents[p]``, ``fields[p]`` and ``slots[p]`` say where it hangs:
    in field ``fields[p]`` of ``nodes[parents[p]]``, as item ``slots[p]``
    when that field is a list (``slots[p]`` is None otherwise).
    ``names[p]`` is an identifier's name (None for other nodes), and
    ``positions`` maps a node id to the first position that carries it,
    the node :meth:`~repro.hdl.ast.Node.find` returns.
    """

    __slots__ = (
        "root", "nodes", "ids", "names", "parents", "fields", "slots", "ends",
        "positions", "max_id", "views",
    )

    def __init__(self, root: ast.Node):
        nodes: list[ast.Node] = []
        parents: list[int] = []
        fields: list[str | None] = []
        slots: list[int | None] = []
        node_type = ast.Node
        stack: list[tuple[ast.Node, int, str | None, int | None]] = [(root, -1, None, None)]
        pop = stack.pop
        while stack:
            node, parent, field, slot = pop()
            position = len(nodes)
            nodes.append(node)
            parents.append(parent)
            fields.append(field)
            slots.append(slot)
            children = []
            for name in node._fields:
                value = getattr(node, name)
                if isinstance(value, node_type):
                    children.append((value, position, name, None))
                elif isinstance(value, list):
                    children.extend(
                        (item, position, name, index)
                        for index, item in enumerate(value)
                        if isinstance(item, node_type)
                    )
            children.reverse()
            stack.extend(children)
        count = len(nodes)
        ends = list(range(1, count + 1))
        for position in range(count - 1, 0, -1):
            end = ends[position]
            parent = parents[position]
            if end > ends[parent]:
                ends[parent] = end
        ids = [node.node_id for node in nodes]
        identifier = ast.Identifier
        self.root = root
        self.nodes = nodes
        self.ids = ids
        self.names = [node.name if isinstance(node, identifier) else None for node in nodes]
        self.parents = parents
        self.fields = fields
        self.slots = slots
        self.ends = ends
        # Later positions first, so the first position of an id wins.
        positions = dict(zip(reversed(ids), range(count - 1, -1, -1)))
        positions.pop(None, None)
        self.positions: dict[int, int] = positions  # type: ignore[assignment]
        self.max_id = max(filter(None, ids), default=0)
        #: Derived views, computed on first use (see the module docstring).
        self.views: dict[object, object] = {}

    @staticmethod
    def of(tree: "ast.Node | VariantIndex") -> "VariantIndex":
        """``tree`` itself when it is an index, else a new index of it."""
        return tree if isinstance(tree, VariantIndex) else VariantIndex(tree)

    # ------------------------------------------------------------------
    # Where a node is
    # ------------------------------------------------------------------

    def path(self, position: int) -> list[Step]:
        """The steps from the root down to ``position``, deepest first
        (the shape :func:`path_to` returns)."""
        nodes, parents, fields, slots = self.nodes, self.parents, self.fields, self.slots
        steps: list[Step] = []
        while position:
            parent = parents[position]
            steps.append((nodes[parent], fields[position], slots[position]))  # type: ignore[arg-type]
            position = parent
        return steps

    def for_faults(self, key: object, fault_ids: Iterable[int], build: Callable[[], T]) -> T:
        """``build()``, kept in :attr:`views` under ``key`` for the last
        fault set (by identity) it was asked for: the harness memoises
        one fault set per parent, so the operators derive each view once
        per parent."""
        memo = self.views.get(key)
        if memo is None or memo[0] is not fault_ids:  # type: ignore[index]
            memo = self.views[key] = (fault_ids, build())
        return memo[1]  # type: ignore[index]

    def fault_positions(self, fault_ids: Iterable[int]) -> list[int]:
        """The positions of the nodes whose id is in ``fault_ids``, in
        preorder."""
        positions = self.positions
        return self.for_faults("faults", fault_ids, lambda: sorted(
            positions[i] for i in fault_ids if i in positions
        ))

    def contains_any(self, position: int, sorted_positions: list[int]) -> bool:
        """Does the subtree at ``position`` hold one of ``sorted_positions``?"""
        at = bisect_left(sorted_positions, position)
        return at < len(sorted_positions) and sorted_positions[at] < self.ends[position]

    def lhs_positions(self) -> frozenset[int]:
        """The positions of every assignment's direct LHS."""
        found = self.views.get("lhs")
        if found is None:
            nodes, parents, fields = self.nodes, self.parents, self.fields
            found = self.views["lhs"] = frozenset(
                position
                for position, field in enumerate(fields)
                if field == "lhs" and isinstance(nodes[parents[position]], _ASSIGNMENTS)
            )
        return found  # type: ignore[return-value]

    def in_statement_list(self, position: int) -> bool:
        """Is the node at ``position`` a member of a block's statement list?"""
        return self.fields[position] == "stmts" and isinstance(
            self.nodes[self.parents[position]], ast.Block
        )


class NodeView(Sequence):
    """The nodes at some of an index's positions, less one, as a
    sequence: ``nodes[p]`` for each ``p`` in the sorted ``positions``
    except ``skip``.  ``random.choice`` draws from it as from the list it
    stands for, without the list being built."""

    __slots__ = ("_nodes", "_positions", "_skip", "_length")

    def __init__(self, nodes: list[ast.Node], positions: list[int], skip: int | None = None):
        self._nodes = nodes
        self._positions = positions
        at = len(positions) if skip is None else bisect_left(positions, skip)
        if at < len(positions) and positions[at] != skip:
            at = len(positions)
        #: Where ``skip`` sits in ``positions`` (their length when absent).
        self._skip = at
        self._length = len(positions) - (at < len(positions))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, item):  # type: ignore[override]
        if item < 0:
            item += self._length
        if not 0 <= item < self._length:
            raise IndexError("NodeView index out of range")
        if item >= self._skip:
            item += 1
        return self._nodes[self._positions[item]]


def path_to(node: ast.Node, node_id: int) -> list[Step] | None:
    """The steps from ``node`` down to the first node, in preorder, with
    ``node_id`` (the node :meth:`~repro.hdl.ast.Node.find` returns),
    deepest step first: ``[]`` when ``node`` itself has the id, None when
    no node has it.  A search of the tree, for trees without an index."""
    if node.node_id == node_id:
        return []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            found = path_to(value, node_id)
            if found is not None:
                found.append((node, name, None))
                return found
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, ast.Node):
                    found = path_to(item, node_id)
                    if found is not None:
                        found.append((node, name, index))
                        return found
    return None


def patch_index(patch: object, tree: ast.Node) -> VariantIndex:
    """The index of ``tree``, the variant ``patch`` yields, memoised on
    the patch as ``_index`` (beside the harness's ``_applied``)."""
    index = getattr(patch, "_index", None)
    if index is None or index.root is not tree:
        index = VariantIndex(tree)
        patch._index = index  # type: ignore[attr-defined]
    return index
