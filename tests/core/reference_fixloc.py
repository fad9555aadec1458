"""Reference insertion anchors for the differential test in ``test_fixloc.py``.

:func:`insertion_anchors` asks, for every statement of an
``always``/``initial`` block, whether some block of that construct lists
it, walking the whole construct once per statement: the most direct
statement of the rule.  :func:`repro.core.fixloc.insertion_anchors` must
return the same nodes in the same order.
"""

from __future__ import annotations

from repro.hdl import ast


def insertion_anchors(design: ast.Node) -> list[ast.Node]:
    """Statements inside initial/always blocks that sit in a statement
    list (so ``insert_after`` has a list to splice into)."""
    anchors: list[ast.Node] = []
    for item in design.walk():
        if isinstance(item, (ast.Always, ast.Initial)):
            for node in item.walk():
                if (
                    isinstance(node, ast.Stmt)
                    and not isinstance(node, ast.Block)
                    and node.node_id is not None
                    and _in_statement_list(item, node)
                ):
                    anchors.append(node)
    return anchors


def _in_statement_list(root: ast.Node, node: ast.Node) -> bool:
    """True when ``node`` is a direct member of some block's statement list."""
    for candidate in root.walk():
        if isinstance(candidate, ast.Block) and any(s is node for s in candidate.stmts):
            return True
    return False
