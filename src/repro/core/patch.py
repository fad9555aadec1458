"""Repair patch representation.

Following the paper (§3), each program variant is "a repair patch describing
a sequence of abstract syntax tree edits parameterized by unique node
numbers".  A :class:`Patch` is an ordered list of :class:`Edit` operations
over the faulty design AST.

Applying a patch never mutates the design.  It copies only the nodes on
the path from the root to each edited node's parent, and the patched tree
shares every other subtree with the design, so applying a one-edit patch
to a large design costs a path, not a clone.  The price is a contract:
nothing may mutate an applied tree (clone the part you want to change).
The repair harness applies each ``Patch`` object once and keeps the tree.

Application is edit-sized.  Each edit's path comes from a
:class:`~repro.core.variant.VariantIndex` of the tree it starts from
instead of a search, and a template rewrites the target that path
reaches, in the slot this application owns.  A child made from a parent
(:meth:`Patch.extended`, or a crossover child whose leading edits are a
whole parent) remembers that parent until it is applied: when the parent
already has a tree and an index, only the child's new edits are applied,
to the parent's tree.

Stability rules that make genetic search work:

- Applying a patch never renumbers existing nodes — an edit created against
  one variant remains meaningful for its descendants.
- Nodes introduced by an edit (insertions, replacements) are numbered from a
  fresh-id pool above every id the base tree uses, deterministically per
  edit position, so two applications of the same patch produce identical
  trees.
- An edit whose target id no longer exists (deleted by an earlier edit, or
  inherited from the other crossover parent) is *stale* and silently skipped
  — the standard GenProg-family convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast
from ..hdl.node_ids import max_node_id, number_nodes
from .templates import is_lvalue_head, place, rewrite
from .variant import Step, VariantIndex, path_to

#: Gap between fresh-id blocks so edits cannot collide.
_ID_BLOCK = 10_000


@dataclass(frozen=True)
class Edit:
    """One AST edit.

    ``kind`` is ``replace``, ``insert_after``, ``delete``, or ``template``.
    ``target_id`` addresses a node in the tree being edited.  ``payload``
    is the replacement/inserted subtree (already cloned, ids irrelevant —
    they are reassigned on application).  ``template`` names the repair
    template for ``kind='template'`` edits (applied via
    :mod:`repro.core.templates`).
    """

    kind: str
    target_id: int
    payload: ast.Node | None = None
    template: str | None = None

    def describe(self) -> str:
        """Short human-readable form, e.g. ``template[sens_posedge]@19``."""
        if self.kind == "template":
            return f"template[{self.template}]@{self.target_id}"
        return f"{self.kind}@{self.target_id}"


@dataclass
class Patch:
    """An ordered sequence of edits over a base design AST."""

    edits: list[Edit] = field(default_factory=list)

    @staticmethod
    def empty() -> "Patch":
        return Patch([])

    def extended(self, edit: Edit) -> "Patch":
        """A new patch with ``edit`` appended (patches are value-like).

        The child remembers this patch as its prefix until it is applied
        (see :meth:`apply`)."""
        child = Patch(self.edits + [edit])
        child._prefix = self  # type: ignore[attr-defined]
        return child

    def __len__(self) -> int:
        return len(self.edits)

    def describe(self) -> str:
        """Human-readable edit list (``<original>`` for the empty patch)."""
        return "; ".join(e.describe() for e in self.edits) or "<original>"

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(
        self, base: ast.Source | VariantIndex, base_max_id: int | None = None
    ) -> ast.Source:
        """Apply all edits to ``base`` and return the patched tree.

        ``base`` is the design, or its
        :class:`~repro.core.variant.VariantIndex` (which spares this call
        an index of its own).  It is never mutated.  The result is
        path-copied: the nodes on the path from the root to each edited
        node's parent are fresh copies, a template's rewrite is a new node
        (:func:`~repro.core.templates.rewrite`), and every other subtree
        is shared with ``base``.  So the result must not be mutated
        either; clone what you want to change.

        When this patch was made from a prefix patch (see
        :meth:`extended`) whose tree over the same design the harness has
        memoised (``_applied``) and indexed (``_index``), only the edits
        after the prefix are applied, to the prefix's tree; the result is
        the same tree, ids included.  The prefix is forgotten either way,
        so no applied patch keeps its ancestors alive.

        ``base_max_id`` is ``max_node_id(base)``, the floor of the fresh-id
        pool; it is computed when not given (a
        :class:`~repro.core.harness.RepairProblem` precomputes it).
        Stale edits are skipped.  Raises nothing: a patch always yields a
        tree (whose code may still fail to parse/elaborate downstream).
        """
        index = base if isinstance(base, VariantIndex) else None
        root = base.root if isinstance(base, VariantIndex) else base
        if base_max_id is None:
            base_max_id = index.max_id if index is not None else max_node_id(root)
        start = 0
        prefix = self.__dict__.pop("_prefix", None)
        if prefix is not None:
            memo = getattr(prefix, "_applied", None)
            prefix_index = getattr(prefix, "_index", None)
            if (
                memo is not None
                and memo[0] is root
                and prefix_index is not None
                and prefix_index.root is memo[1]
            ):
                index, start = prefix_index, len(prefix.edits)
        if start == len(self.edits):
            return index.root if index is not None else root  # type: ignore[return-value]
        if index is None:
            index = VariantIndex(root)
        tree: ast.Node = index.root
        #: The path copies this application made (id → node), which it may
        #: edit in place; any other node may be shared with ``base``.
        owned: dict[int, ast.Node] = {}
        #: Nodes made by this application's edits get ids from here up.
        fresh_floor = base_max_id + (start + 1) * _ID_BLOCK
        changed = False
        for position in range(start, len(self.edits)):
            edit = self.edits[position]
            fresh_start = base_max_id + (position + 1) * _ID_BLOCK
            path = _locate(tree, index, edit.target_id, changed, fresh_floor)
            if path is None:
                continue  # stale edit
            if edit.kind == "delete":
                if path:
                    tree, parent, name, slot = _copy_path(tree, path, owned)
                    if isinstance(_get(parent, name, slot), ast.Stmt):
                        # The paper's "replaces it with an empty node".
                        _set(parent, name, slot, ast.NullStmt())
                    else:
                        _remove(parent, name, slot)
                    changed = True
            elif edit.kind == "replace":
                if edit.payload is None:
                    continue
                if path:
                    replacement = edit.payload.clone()
                    number_nodes(replacement, fresh_start)
                    tree, parent, name, slot = _copy_path(tree, path, owned)
                    _set(parent, name, slot, replacement)
                    changed = True
            elif edit.kind == "insert_after":
                if edit.payload is None:
                    continue
                # Only a list slot takes an insertion.
                if path and path[0][2] is not None:
                    inserted = edit.payload.clone()
                    number_nodes(inserted, fresh_start)
                    tree, parent, name, slot = _copy_path(tree, path, owned)
                    getattr(parent, name).insert(slot + 1, inserted)  # type: ignore[operator]
                    changed = True
            elif edit.kind == "template":
                if edit.template is None or not path:
                    continue  # no template rewrites the root
                target = _get(*path[0])
                nodes = rewrite(
                    edit.template, target, fresh_start,
                    isinstance(target, ast.Identifier) and is_lvalue_head(path),
                )
                if nodes is not None and (len(nodes) == 1 or path[0][2] is not None):
                    tree, parent, name, slot = _copy_path(tree, path, owned)
                    place(parent, name, slot, nodes)
                    changed = True
            else:
                raise ValueError(f"unknown edit kind {edit.kind!r}")
        return tree  # type: ignore[return-value]

    def subset(self, keep: list[int]) -> "Patch":
        """Patch with only the edits at the given indices (for ddmin)."""
        return Patch([self.edits[i] for i in keep])


def _locate(
    tree: ast.Node, index: VariantIndex, node_id: int, changed: bool, fresh_floor: int
) -> list[Step] | None:
    """The path (deepest step first) to the node with ``node_id`` in
    ``tree``, which is ``index``'s tree with this application's edits so
    far (``changed`` once one has edited it); None when no node has it.

    The index gives the path in time proportional to its depth.  After an
    edit, the slots along it are followed down ``tree`` and the path is
    kept when they still reach ``node_id``; an earlier edit may have
    shifted a list or rewritten an ancestor, and then ``tree`` is
    searched.  An id the index lacks is on no node of the index's tree,
    so it is stale unless an edit of this application made it.
    """
    position = index.positions.get(node_id)
    if position is None:
        if changed and node_id >= fresh_floor:
            return path_to(tree, node_id)
        return None
    path = index.path(position)
    if not changed:
        return path
    node = tree
    current: list[Step] = []
    for _, name, slot in reversed(path):
        value = getattr(node, name, None)
        if slot is not None:
            value = value[slot] if isinstance(value, list) and slot < len(value) else None
        if not isinstance(value, ast.Node):
            return path_to(tree, node_id)
        current.append((node, name, slot))
        node = value
    if node.node_id != node_id:
        return path_to(tree, node_id)
    current.reverse()
    return current


def _copy_path(
    tree: ast.Node, path: list[Step], owned: dict[int, ast.Node]
) -> tuple[ast.Node, ast.Node, str, int | None]:
    """Make every node on ``path`` (from :func:`_locate`) above the target
    one this application owns, copying the shared ones.

    Returns the new root and the owned parent's slot holding the target.
    """
    root = node = _own(tree, owned)
    for _, name, index in reversed(path[1:]):
        child = _get(node, name, index)
        copy = _own(child, owned)
        if copy is not child:
            _set(node, name, index, copy)
        node = copy
    _, name, index = path[0]
    return root, node, name, index


def _own(node: ast.Node, owned: dict[int, ast.Node]) -> ast.Node:
    """``node`` if this application owns it, else a shallow copy it owns
    (list attributes copied, so the copy's slots can change freely)."""
    if id(node) in owned:
        return node
    copy = node.copy()
    owned[id(copy)] = copy
    return copy


def _get(parent: ast.Node, name: str, index: int | None) -> ast.Node:
    value = getattr(parent, name)
    return value if index is None else value[index]


def _set(parent: ast.Node, name: str, index: int | None, child: ast.Node) -> None:
    if index is None:
        setattr(parent, name, child)
    else:
        getattr(parent, name)[index] = child


def _remove(parent: ast.Node, name: str, index: int | None) -> None:
    """Delete a child: removed from a list slot, ``None`` in a scalar slot."""
    if index is None:
        setattr(parent, name, None)
    else:
        del getattr(parent, name)[index]
