"""Repair templates (paper §3.3, Table 1).

Nine pre-identified fix patterns across four defect categories:

=================  ==============================================
Category           Templates
=================  ==============================================
Conditionals       ``negate_conditional``
Sensitivity lists  ``sens_negedge``, ``sens_posedge``,
                   ``sens_any_change``, ``sens_level``
Assignments        ``blocking_to_nonblocking``,
                   ``nonblocking_to_blocking``
Numeric            ``increment_by_one``, ``decrement_by_one``
=================  ==============================================

A template is applied to a target node (chosen from the fault localization
set); :func:`applicable_templates` reports which templates fit which node,
and :func:`apply_template` performs the rewrite in place.
"""

from __future__ import annotations

from ..hdl import ast
from ..hdl.node_ids import number_nodes

#: All template names, grouped by the paper's defect categories.
TEMPLATES_BY_CATEGORY: dict[str, tuple[str, ...]] = {
    "conditionals": ("negate_conditional",),
    "sensitivity": ("sens_negedge", "sens_posedge", "sens_any_change", "sens_level"),
    "assignments": ("blocking_to_nonblocking", "nonblocking_to_blocking"),
    "numeric": ("increment_by_one", "decrement_by_one"),
}

ALL_TEMPLATES: tuple[str, ...] = tuple(
    name for group in TEMPLATES_BY_CATEGORY.values() for name in group
)


def applicable_templates(node: ast.Node) -> list[str]:
    """Templates that can rewrite ``node``."""
    names: list[str] = []
    if isinstance(node, (ast.If, ast.While)):
        names.append("negate_conditional")
    if isinstance(node, ast.Always) and node.senslist is not None:
        names.extend(TEMPLATES_BY_CATEGORY["sensitivity"])
    if isinstance(node, ast.SensItem):
        names.extend(("sens_negedge", "sens_posedge", "sens_level"))
    if isinstance(node, ast.BlockingAssign):
        names.append("blocking_to_nonblocking")
    if isinstance(node, ast.NonBlockingAssign):
        names.append("nonblocking_to_blocking")
    if isinstance(node, (ast.Number, ast.Identifier)):
        names.extend(("increment_by_one", "decrement_by_one"))
    return names


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
        from .templates_ext import EXTENDED_TEMPLATES, apply_extended

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
    parents = tree.parent_map()
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
