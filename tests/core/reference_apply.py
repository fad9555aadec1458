"""Reference patch application for the differential oracles.

:func:`reference_apply` is the clone-then-edit apply that path copying
replaced: clone the whole design, then find each edit's target and edit
the clone in place.  Its templates are the in-place ones that came
before :func:`repro.core.templates.rewrite` built rewritten nodes for the
slot :meth:`~repro.core.patch.Patch.apply` has already located: each
finds its target with ``find``, puts a new node in place with ``replace``
or ``insert_after``, and tests for an lvalue head through a map of every
node's parent.  ``Patch.apply`` must build the same tree, ids included
(``test_patch_oracle.py``, and for every application of a trial,
``edit_path_checks.py``).
"""

from __future__ import annotations

from repro.core.templates import applicable_templates
from repro.core.templates_ext import (
    _COMPARISON_FLIP,
    EXTENDED_TEMPLATES,
    applicable_extended,
)
from repro.hdl import ast
from repro.hdl.node_ids import max_node_id, number_nodes


def reference_apply(patch, base):
    """The clone-then-edit apply: clone the whole design, then edit it."""
    tree = base.clone()
    base_max = max_node_id(base)
    for position, edit in enumerate(patch.edits):
        fresh_start = base_max + (position + 1) * 10_000
        target = tree.find(edit.target_id)
        if target is None:
            continue
        if edit.kind == "delete":
            if isinstance(target, ast.Stmt):
                tree.replace(edit.target_id, ast.NullStmt())
            else:
                tree.replace(edit.target_id, None)
        elif edit.kind in ("replace", "insert_after"):
            if edit.payload is None:
                continue
            payload = edit.payload.clone()
            number_nodes(payload, fresh_start)
            if edit.kind == "replace":
                tree.replace(edit.target_id, payload)
            else:
                tree.insert_after(edit.target_id, payload)
        elif edit.kind == "template":
            if edit.template is not None:
                apply_template(edit.template, tree, edit.target_id, fresh_start)
        else:
            raise ValueError(f"unknown edit kind {edit.kind!r}")
    return tree


def _parent_map(tree: ast.Node) -> dict[int, ast.Node]:
    """Map each descendant's node_id to its parent node."""
    parents: dict[int, ast.Node] = {}
    for node in tree.walk():
        for child in node.children():
            if child.node_id is not None:
                parents[child.node_id] = node
    return parents


def apply_template(name: str, tree: ast.Source, target_id: int, fresh_start: int) -> bool:
    """Apply template ``name`` to node ``target_id`` inside ``tree``.

    Returns True when the rewrite happened (False for stale targets or an
    inapplicable template — both no-ops, per the patch conventions).
    Fresh nodes are numbered from ``fresh_start``.
    """
    target = tree.find(target_id)
    if target is None:
        return False
    if name not in applicable_templates(target):
        # Extension templates (paper future work) share the edit kind so a
        # patchlist stays uniform; they live in templates_ext.
        if name in EXTENDED_TEMPLATES:
            return apply_extended(name, tree, target_id, fresh_start)
        return False
    if name == "negate_conditional":
        assert isinstance(target, (ast.If, ast.While))
        negated = ast.UnaryOp("!", target.cond)
        negated.node_id = fresh_start  # the wrapped condition keeps its ids
        target.cond = negated
        return True
    if name.startswith("sens_"):
        return _apply_sensitivity(name, tree, target, fresh_start)
    if name == "blocking_to_nonblocking":
        assert isinstance(target, ast.BlockingAssign)
        replacement = ast.NonBlockingAssign(target.lhs, target.rhs, target.delay)
        replacement.node_id = fresh_start
        return tree.replace(target_id, replacement)
    if name == "nonblocking_to_blocking":
        assert isinstance(target, ast.NonBlockingAssign)
        replacement = ast.BlockingAssign(target.lhs, target.rhs, target.delay)
        replacement.node_id = fresh_start
        return tree.replace(target_id, replacement)
    if name in ("increment_by_one", "decrement_by_one"):
        return _apply_numeric(name, tree, target, fresh_start)
    return False


def _apply_sensitivity(
    name: str, tree: ast.Source, target: ast.Node, fresh_start: int
) -> bool:
    """Rewrite a sensitivity list (on an Always block or a single item)."""
    if isinstance(target, ast.SensItem):
        if target.signal is None:
            return False
        if name == "sens_negedge":
            target.edge = "negedge"
        elif name == "sens_posedge":
            target.edge = "posedge"
        elif name == "sens_level":
            target.edge = "level"
        else:
            return False
        return True
    assert isinstance(target, ast.Always) and target.senslist is not None
    items = target.senslist.items
    if name == "sens_any_change":
        # Trigger on any change to a variable within the block: @(*).
        new_item = ast.SensItem("all", None)
        number_nodes(new_item, fresh_start)
        target.senslist.items = [new_item]
        return True
    if not items:
        return False
    first = items[0]
    if first.signal is None:
        return False
    if name == "sens_negedge":
        first.edge = "negedge"
    elif name == "sens_posedge":
        first.edge = "posedge"
    elif name == "sens_level":
        first.edge = "level"
    else:
        return False
    return True


def _apply_numeric(name: str, tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    delta = 1 if name == "increment_by_one" else -1
    if isinstance(target, ast.Number):
        # Adjust the literal itself (off-by-one style numeric errors).
        if target.bval != 0:
            return False
        width = target.width
        eff_width = width if width is not None else 32
        new_value = (target.aval + delta) & ((1 << eff_width) - 1)
        replacement = ast.Number.from_int(new_value, width)
        replacement.node_id = fresh_start
        return tree.replace(target.node_id or -1, replacement)
    if isinstance(target, ast.Identifier):
        if _is_lvalue_head(tree, target):
            # Wrapping the head of an assignment target would emit
            # ``(a + 1) = rhs;`` which no longer parses — refuse (no-op).
            return False
        op = "+" if delta == 1 else "-"
        wrapped = ast.BinaryOp(op, ast.Identifier(target.name), ast.Number.from_int(1))
        number_nodes(wrapped, fresh_start)
        return tree.replace(target.node_id or -1, wrapped)
    return False


def _is_lvalue_head(tree: ast.Source, target: ast.Identifier) -> bool:
    """True when ``target`` names the variable being assigned.

    That is, it is reachable from an assignment's ``lhs`` slot through
    ``Index``/``PartSelect`` target links only.  Identifiers inside a
    concatenation lvalue or an index expression are fine — a rewritten
    ``{a, b[(i + 1)]} = rhs;`` still parses.
    """
    if target.node_id is None:
        return False
    parents = _parent_map(tree)
    node: ast.Node = target
    while True:
        parent = parents.get(node.node_id or -1)
        if parent is None:
            return False
        if isinstance(
            parent, (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)
        ):
            return parent.lhs is node
        if isinstance(parent, (ast.Index, ast.PartSelect)) and parent.target is node:
            node = parent
            continue
        return False


def apply_extended(name: str, tree: ast.Source, target_id: int, fresh_start: int) -> bool:
    """Apply extended template ``name`` to ``target_id``; no-op when stale
    or inapplicable (same conventions as the core templates)."""
    target = tree.find(target_id)
    if target is None or name not in applicable_extended(target):
        return False
    if name == "swap_if_branches":
        assert isinstance(target, ast.If)
        target.then_stmt, target.else_stmt = target.else_stmt, target.then_stmt
        return True
    if name == "widen_register":
        assert isinstance(target, ast.Decl)
        return _widen(target, tree, fresh_start)
    if name == "zero_assignment":
        return _zero_assignment(target, tree, fresh_start)
    if name == "negate_equality":
        assert isinstance(target, ast.BinaryOp)
        target.op = _COMPARISON_FLIP[target.op]
        return True
    return False


def _widen(decl: ast.Decl, tree: ast.Source, fresh_start: int) -> bool:
    if not isinstance(decl.msb, ast.Number) or decl.msb.bval:
        return False
    old_width = decl.msb.aval + 1
    new_msb_value = old_width * 2 - 1
    new_msb = ast.Number.from_int(new_msb_value)
    new_msb.node_id = fresh_start
    decl.msb = new_msb
    return True


def _zero_assignment(target: ast.Node, tree: ast.Source, fresh_start: int) -> bool:
    assert isinstance(target, (ast.BlockingAssign, ast.NonBlockingAssign))
    zero = ast.Number.from_int(0)
    duplicate = type(target)(target.lhs.clone(), zero, None)
    number_nodes(duplicate, fresh_start)
    return tree.insert_after(target.node_id or -1, duplicate)
