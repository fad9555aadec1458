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

from ..hdl import ast
from ..hdl.node_ids import number_nodes

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


def extra_candidates(tree: ast.Source, fault_ids: set[int]) -> list[tuple[int, str]]:
    """Extension targets beyond the fault set itself.

    Declarations are never implicated by Algorithm 2 (they are neither
    assignments nor conditionals), so ``widen_register`` targets the
    declarations of identifiers *mentioned inside* implicated nodes.
    """
    fault_names: set[str] = set()
    for node in tree.walk():
        if node.node_id in fault_ids:
            for sub in node.walk():
                if isinstance(sub, ast.Identifier):
                    fault_names.add(sub.name)
    candidates: list[tuple[int, str]] = []
    for node in tree.walk():
        if (
            isinstance(node, ast.Decl)
            and node.name in fault_names
            and node.node_id is not None
            and "widen_register" in applicable_extended(node)
        ):
            candidates.append((node.node_id, "widen_register"))
    return candidates


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
