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

Every query takes a tree or its :class:`~repro.core.variant.VariantIndex`
and answers from the index, keeping what it derives there, so the GP
operators pay for each query once per parent variant.
"""

from __future__ import annotations

import functools
from collections.abc import Collection, Sequence

from ..hdl import ast
from .variant import NodeView, VariantIndex

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


def insertion_sources(design: ast.Node | VariantIndex) -> list[ast.Node]:
    """Statements from the design usable as insertion material, in
    preorder (kept on the index: read it, never change it)."""
    index = VariantIndex.of(design)
    sources = index.views.get("insertion_sources")
    if sources is None:
        sources = index.views["insertion_sources"] = [
            node
            for node, node_id in zip(index.nodes, index.ids)
            if node_id is not None and isinstance(node, _INSERTABLE_STATEMENTS)
        ]
    return sources  # type: ignore[return-value]


def insertion_anchors(design: ast.Node | VariantIndex) -> list[ast.Node]:
    """Statements inside initial/always blocks, usable as insert-after
    anchors (an inserted statement lands in the anchor's enclosing list),
    in preorder (kept on the index: read it, never change it).

    An anchor is a statement, not a block, with an id, that is a member
    of a block's statement list, under an always/initial construct:
    each construct's extent is one slice of the index."""
    index = VariantIndex.of(design)
    anchors = index.views.get("insertion_anchors")
    if anchors is None:
        nodes, ids, ends = index.nodes, index.ids, index.ends
        anchors = index.views["insertion_anchors"] = [
            nodes[position]
            for construct, item in enumerate(nodes)
            if isinstance(item, (ast.Always, ast.Initial))
            for position in range(construct + 1, ends[construct])
            if ids[position] is not None
            and isinstance(nodes[position], ast.Stmt)
            and not isinstance(nodes[position], ast.Block)
            and index.in_statement_list(position)
        ]
    return anchors  # type: ignore[return-value]


def compatible_replacement(target: ast.Node, source: ast.Node) -> bool:
    """May ``source`` replace ``target`` under the fix localization rules?

    Same type, or same grammar family; an expression replacing an
    assignment LHS must also remain an lvalue, which the operator checks
    (:func:`lvalue_sources`)."""
    return _family(type(target)) == _family(type(source))


@functools.cache
def _family(node_type: type) -> object:
    """The replacement class of a node type: its grammar family, or the
    type itself when it is in none (then only its own type may replace
    it).  The families are disjoint, so two nodes are compatible exactly
    when their classes are equal."""
    for number, family in enumerate(_FAMILIES):
        if issubclass(node_type, family):
            return number
    return node_type


def _replacement_classes(index: VariantIndex) -> dict[object, list[int]]:
    """Each replacement class's positions (nodes with an id), in preorder."""
    classes = index.views.get("replacement_classes")
    if classes is None:
        classes = {}
        for position, (node, node_id) in enumerate(zip(index.nodes, index.ids)):
            if node_id is not None:
                classes.setdefault(_family(type(node)), []).append(position)
        index.views["replacement_classes"] = classes
    return classes  # type: ignore[return-value]


def replacement_sources(
    design: ast.Node | VariantIndex, target: ast.Node
) -> Sequence[ast.Node]:
    """All design nodes that may replace ``target``, in preorder: the
    target's replacement class without the target itself (a view of the
    index, not a copy)."""
    index = VariantIndex.of(design)
    positions = _replacement_classes(index).get(_family(type(target)), [])
    return NodeView(index.nodes, positions, _position_of(index, target))


def lvalue_sources(
    design: ast.Node | VariantIndex, target: ast.Node
) -> Sequence[ast.Node]:
    """The :func:`replacement_sources` of ``target`` that are lvalues
    (:func:`is_lvalue_expr`): what may replace an assignment's LHS."""
    index = VariantIndex.of(design)
    key = _family(type(target))
    lvalues = index.views.setdefault("lvalue_classes", {})
    positions = lvalues.get(key)  # type: ignore[union-attr]
    if positions is None:
        nodes = index.nodes
        positions = lvalues[key] = [  # type: ignore[index]
            position
            for position in _replacement_classes(index).get(key, [])
            if is_lvalue_expr(nodes[position])
        ]
    return NodeView(index.nodes, positions, _position_of(index, target))


def _position_of(index: VariantIndex, node: ast.Node) -> int | None:
    position = index.positions.get(node.node_id)  # type: ignore[arg-type]
    return position if position is not None and index.nodes[position] is node else None


def is_lvalue_expr(node: ast.Node) -> bool:
    """Expressions that remain legal assignment targets."""
    if isinstance(node, ast.Identifier):
        return True
    if isinstance(node, (ast.Index, ast.PartSelect)):
        return is_lvalue_expr(node.target)
    if isinstance(node, ast.Concat):
        return all(is_lvalue_expr(p) for p in node.parts)
    return False


def deletable_targets(
    design: ast.Node | VariantIndex, fault_ids: Collection[int]
) -> list[ast.Node]:
    """Statements in the fault space that can be deleted safely."""
    index = VariantIndex.of(design)
    nodes = index.nodes
    return [
        nodes[position]
        for position in index.fault_positions(fault_ids)
        if isinstance(nodes[position], ast.Stmt)
        and not isinstance(nodes[position], ast.Block)
    ]
