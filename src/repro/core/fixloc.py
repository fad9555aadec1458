"""Fix localization (paper §3.6).

Fault localization says *where* to edit; fix localization restricts *what*
code may be inserted or substituted there, cutting the fraction of mutants
that fail to compile (the paper reports 35% → 10%).

Rules implemented:

- **Insert sources** — only statement-typed nodes (IEEE 1364 Annex A.6.4)
  drawn from the design itself may be inserted, and only after statements
  that already sit inside ``initial``/``always`` blocks (Annex A.6.2).
- **Replace compatibility** — a node may be replaced by a node of the same
  type, or by one whose type shares the same immediate parent type in the
  Verilog grammar (statements with statements, expressions with
  expressions, module items with module items).
"""

from __future__ import annotations

from ..hdl import ast

#: Statement classes eligible as insertion material (Annex A.6.4 subset).
_INSERTABLE_STATEMENTS = (
    ast.BlockingAssign,
    ast.NonBlockingAssign,
    ast.If,
    ast.Case,
    ast.Block,
    ast.For,
    ast.While,
    ast.RepeatStmt,
    ast.Wait,
    ast.SysTaskCall,
    ast.TaskCall,
    ast.EventTrigger,
)

#: Grammar families for the "same immediate parent type" replacement rule.
_FAMILIES: tuple[tuple[type, ...], ...] = (
    (ast.Stmt,),
    (ast.Expr,),
    (ast.ContinuousAssign, ast.Always, ast.Initial, ast.Instance),
    (ast.SensItem,),
    (ast.CaseItem,),
)


def insertion_sources(design: ast.Node) -> list[ast.Node]:
    """Statements from the design usable as insertion material."""
    return [
        node
        for node in design.walk()
        if isinstance(node, _INSERTABLE_STATEMENTS) and node.node_id is not None
    ]


def insertion_anchors(design: ast.Node) -> list[ast.Node]:
    """Statements inside initial/always blocks, usable as insert-after
    anchors (an inserted statement lands in the anchor's enclosing list),
    in preorder.

    Each always/initial construct is walked once: the members of its
    blocks' statement lists are collected first, then each of its
    statements is kept when it is such a member."""
    anchors: list[ast.Node] = []
    for item in design.walk():
        if isinstance(item, (ast.Always, ast.Initial)):
            nodes = list(item.walk())
            members = {
                id(stmt)
                for node in nodes
                if isinstance(node, ast.Block)
                for stmt in node.stmts
            }
            anchors.extend(
                node
                for node in nodes
                if isinstance(node, ast.Stmt)
                and not isinstance(node, ast.Block)
                and node.node_id is not None
                and id(node) in members
            )
    return anchors


def compatible_replacement(target: ast.Node, source: ast.Node) -> bool:
    """May ``source`` replace ``target`` under the fix localization rules?"""
    if type(target) is type(source):
        return True
    for family in _FAMILIES:
        target_in = isinstance(target, family)
        source_in = isinstance(source, family)
        if target_in and source_in:
            # Same grammar family: allowed, except lvalue-breaking swaps
            # (an expression replacing an assignment LHS must remain an
            # lvalue; checked by the operator before emitting the edit).
            return True
        if target_in != source_in:
            continue
    return False


def replacement_sources(design: ast.Node, target: ast.Node) -> list[ast.Node]:
    """All design nodes that may replace ``target``."""
    return [
        node
        for node in design.walk()
        if node is not target
        and node.node_id is not None
        and compatible_replacement(target, node)
    ]


def is_lvalue_expr(node: ast.Node) -> bool:
    """Expressions that remain legal assignment targets."""
    if isinstance(node, ast.Identifier):
        return True
    if isinstance(node, (ast.Index, ast.PartSelect)):
        return is_lvalue_expr(node.target)
    if isinstance(node, ast.Concat):
        return all(is_lvalue_expr(p) for p in node.parts)
    return False


def deletable_targets(design: ast.Node, fault_ids: set[int]) -> list[ast.Node]:
    """Statements in the fault space that can be deleted safely."""
    return [
        node
        for node in design.walk()
        if node.node_id in fault_ids
        and isinstance(node, ast.Stmt)
        and not isinstance(node, ast.Block)
    ]
