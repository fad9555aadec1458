"""Extended repair templates (the paper's future-work direction).

Section 5.2 observes CirFix fails on defect classes its nine templates
cannot express — most explicitly the reed_solomon_decoder register-width
defect: "none of its operators or repair templates are capable of
increasing the number of bits allocated to the integer 500.  We note that
while adding more repair templates can help in such cases ...".

This module implements four such extension templates, disabled by default
(``RepairConfig.extended_templates``) so the core reproduction stays
faithful to the paper's template set:

=====================  ======================================================
Template               Rewrite
=====================  ======================================================
``swap_if_branches``   Exchange the then/else branches of an if-statement
``widen_register``     Double the width of a reg/wire declaration
``zero_assignment``    Duplicate an assignment with its RHS forced to zero
                       (targets the missing-reset defect class)
``negate_equality``    Flip ``==`` ↔ ``!=`` (and ``<`` ↔ ``>=``, etc.) in a
                       comparison
=====================  ======================================================
"""

from __future__ import annotations

from collections.abc import Collection

from ..hdl import ast
from ..hdl.node_ids import number_nodes
from .templates import apply_template
from .variant import VariantIndex

EXTENDED_TEMPLATES: tuple[str, ...] = (
    "swap_if_branches",
    "widen_register",
    "zero_assignment",
    "negate_equality",
)

_COMPARISON_FLIP = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def applicable_extended(node: ast.Node) -> list[str]:
    """Extended templates that can rewrite ``node``."""
    names: list[str] = []
    if isinstance(node, ast.If) and node.else_stmt is not None:
        names.append("swap_if_branches")
    if isinstance(node, ast.Decl) and node.kind in ("reg", "wire") and node.msb is not None:
        names.append("widen_register")
    if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
        names.append("zero_assignment")
    if isinstance(node, ast.BinaryOp) and node.op in _COMPARISON_FLIP:
        names.append("negate_equality")
    return names


def extra_candidates(
    tree: ast.Source | VariantIndex, fault_ids: Collection[int]
) -> list[tuple[int, str]]:
    """Extension targets beyond the fault set itself.

    Declarations are never implicated by Algorithm 2 (they are neither
    assignments nor conditionals), so ``widen_register`` targets the
    declarations of identifiers *mentioned inside* implicated nodes.
    ``tree`` may be given as its :class:`~repro.core.variant.VariantIndex`,
    whose identifier names and subtree extents answer this without a walk.
    """
    index = VariantIndex.of(tree)
    names, ends = index.names, index.ends
    fault_names: set[str | None] = set()
    covered = 0
    for position in index.fault_positions(fault_ids):
        if position >= covered:  # not inside the last fault subtree
            covered = ends[position]
            fault_names.update(names[position:covered])
    fault_names.discard(None)
    decls = index.views.get("decls")
    if decls is None:
        decls = index.views["decls"] = [
            node for node in index.nodes if isinstance(node, ast.Decl)
        ]
    return [
        (node.node_id, "widen_register")
        for node in decls  # type: ignore[attr-defined]
        if node.name in fault_names
        and node.node_id is not None
        and "widen_register" in applicable_extended(node)
    ]


def apply_extended(name: str, tree: ast.Source, target_id: int, fresh_start: int) -> bool:
    """Apply extended template ``name`` to ``target_id`` in place; no-op
    when stale or inapplicable (same conventions as the core templates)."""
    return name in EXTENDED_TEMPLATES and apply_template(name, tree, target_id, fresh_start)


def rewrite_extended(
    name: str, target: ast.Node, fresh_start: int
) -> list[ast.Node] | None:
    """Extended template ``name`` applied to ``target``, which is left
    untouched (see :func:`repro.core.templates.rewrite`)."""
    if name not in applicable_extended(target):
        return None
    if name == "swap_if_branches":
        assert isinstance(target, ast.If)
        swapped = target.copy()
        swapped.then_stmt, swapped.else_stmt = target.else_stmt, target.then_stmt  # type: ignore[attr-defined]
        return [swapped]
    if name == "widen_register":
        assert isinstance(target, ast.Decl)
        return _widen(target, fresh_start)
    if name == "zero_assignment":
        return _zero_assignment(target, fresh_start)
    if name == "negate_equality":
        assert isinstance(target, ast.BinaryOp)
        flipped = target.copy()
        flipped.op = _COMPARISON_FLIP[target.op]  # type: ignore[attr-defined]
        return [flipped]
    return None


def _widen(decl: ast.Decl, fresh_start: int) -> list[ast.Node] | None:
    if not isinstance(decl.msb, ast.Number) or decl.msb.bval:
        return None
    old_width = decl.msb.aval + 1
    new_msb_value = old_width * 2 - 1
    new_msb = ast.Number.from_int(new_msb_value)
    new_msb.node_id = fresh_start
    widened = decl.copy()
    widened.msb = new_msb  # type: ignore[attr-defined]
    return [widened]


def _zero_assignment(target: ast.Node, fresh_start: int) -> list[ast.Node]:
    """The target, then a copy of it that assigns zero (a list slot only)."""
    assert isinstance(target, (ast.BlockingAssign, ast.NonBlockingAssign))
    zero = ast.Number.from_int(0)
    duplicate = type(target)(target.lhs.clone(), zero, None)
    number_nodes(duplicate, fresh_start)
    return [target, duplicate]
