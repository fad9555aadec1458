"""Repair patch representation.

Following the paper (§3), each program variant is "a repair patch describing
a sequence of abstract syntax tree edits parameterized by unique node
numbers".  A :class:`Patch` is an ordered list of :class:`Edit` operations
over the faulty design AST.

Applying a patch never mutates the design.  It copies only the nodes on
the path from the root to each edited node's parent, and the patched tree
shares every other subtree with the design, so applying a one-edit patch
to a large design costs a walk, not a clone.  The price is a contract:
nothing may mutate an applied tree (clone the part you want to change).
The repair harness applies each ``Patch`` object once and keeps the tree.

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
        """A new patch with ``edit`` appended (patches are value-like)."""
        return Patch(self.edits + [edit])

    def __len__(self) -> int:
        return len(self.edits)

    def describe(self) -> str:
        """Human-readable edit list (``<original>`` for the empty patch)."""
        return "; ".join(e.describe() for e in self.edits) or "<original>"

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, base: ast.Source, base_max_id: int | None = None) -> ast.Source:
        """Apply all edits to ``base`` and return the patched tree.

        ``base`` is never mutated.  The result is path-copied: the nodes
        on the path from the root to each edited node's parent are fresh
        copies, a ``template`` edit's target subtree is a deep clone (the
        templates rewrite their target in place), and every other subtree
        is shared with ``base``.  So the result must not be mutated
        either; clone what you want to change.

        ``base_max_id`` is ``max_node_id(base)``, the floor of the fresh-id
        pool; it is computed when not given (a
        :class:`~repro.core.harness.RepairProblem` precomputes it).
        Stale edits are skipped.  Raises nothing: a patch always yields a
        tree (whose code may still fail to parse/elaborate downstream).
        """
        from .templates import apply_template  # local import to avoid cycle

        if base_max_id is None:
            base_max_id = max_node_id(base)
        tree = base
        #: The path copies this application made (id → node), which it may
        #: edit in place; any other node may be shared with ``base``.
        owned: dict[int, ast.Node] = {}
        for position, edit in enumerate(self.edits):
            fresh_start = base_max_id + (position + 1) * _ID_BLOCK
            path = _path_to(tree, edit.target_id)
            if path is None:
                continue  # stale edit
            if edit.kind == "delete":
                if path:
                    tree, parent, name, index = _copy_path(tree, path, owned)
                    if isinstance(_get(parent, name, index), ast.Stmt):
                        # The paper's "replaces it with an empty node".
                        _set(parent, name, index, ast.NullStmt())
                    else:
                        _remove(parent, name, index)
            elif edit.kind == "replace":
                if edit.payload is None:
                    continue
                if path:
                    replacement = edit.payload.clone()
                    number_nodes(replacement, fresh_start)
                    tree, parent, name, index = _copy_path(tree, path, owned)
                    _set(parent, name, index, replacement)
            elif edit.kind == "insert_after":
                if edit.payload is None:
                    continue
                # Only a list slot takes an insertion.
                if path and path[0][2] is not None:
                    inserted = edit.payload.clone()
                    number_nodes(inserted, fresh_start)
                    tree, parent, name, index = _copy_path(tree, path, owned)
                    getattr(parent, name).insert(index + 1, inserted)
            elif edit.kind == "template":
                if edit.template is None:
                    continue
                if path:
                    tree, parent, name, index = _copy_path(tree, path, owned)
                    _set(parent, name, index, _get(parent, name, index).clone())
                else:
                    tree = tree.clone()
                apply_template(edit.template, tree, edit.target_id, fresh_start)
            else:
                raise ValueError(f"unknown edit kind {edit.kind!r}")
        return tree  # type: ignore[return-value]

    def subset(self, keep: list[int]) -> "Patch":
        """Patch with only the edits at the given indices (for ddmin)."""
        return Patch([self.edits[i] for i in keep])


#: One step down a tree: the child in ``parent.<name>`` (``index`` None)
#: or in ``parent.<name>[index]``.
_Step = tuple[ast.Node, str, int | None]


def _path_to(node: ast.Node, node_id: int) -> list[_Step] | None:
    """The steps from ``node`` down to the first node, in preorder, with
    ``node_id`` (the node :meth:`~repro.hdl.ast.Node.find` returns),
    deepest step first: ``[]`` when ``node`` itself has the id, None when
    no node has it."""
    if node.node_id == node_id:
        return []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            found = _path_to(value, node_id)
            if found is not None:
                found.append((node, name, None))
                return found
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, ast.Node):
                    found = _path_to(item, node_id)
                    if found is not None:
                        found.append((node, name, index))
                        return found
    return None


def _copy_path(
    tree: ast.Node, path: list[_Step], owned: dict[int, ast.Node]
) -> tuple[ast.Node, ast.Node, str, int | None]:
    """Make every node on ``path`` (from :func:`_path_to`) above the target
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
    copy = object.__new__(type(node))
    for key, value in node.__dict__.items():
        copy.__dict__[key] = value.copy() if isinstance(value, list) else value
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
