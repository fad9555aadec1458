"""Reference Algorithm 2 for the differential oracle in ``test_faultloc.py``.

:func:`localize_faults` re-checks every node of the design in every
round, walking each conditional's whole subtree to decide whether it is
implicated: the most direct statement of the paper's fixed point.
:func:`repro.core.faultloc.localize_faults` must return the same
``nodes``, ``mismatch`` and ``iterations``.
"""

from __future__ import annotations

from repro.core.faultloc import FaultLocalization
from repro.hdl import ast
from repro.hdl.dataflow import lhs_names

_ASSIGNMENT_TYPES = (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)
_CONDITIONAL_TYPES = (ast.If, ast.Case, ast.While, ast.Ternary, ast.For)


def _implicated(node: ast.Node, mismatch: set[str]) -> bool:
    """The paper's ``implicated(node, mismatch)`` predicate.

    Impl-Ctrl matches the paper's motivating-example walkthrough: "the
    entire if-statement wrapping this assignment gets implicated" — i.e. a
    conditional statement is implicated when *any* identifier in the whole
    statement (guard or body) is in the mismatch set.
    """
    if isinstance(node, _ASSIGNMENT_TYPES):
        if lhs_names(node.lhs) & mismatch:  # Impl-Data
            return True
    if isinstance(node, _CONDITIONAL_TYPES):
        for sub in node.walk():
            if isinstance(sub, ast.Identifier) and sub.name in mismatch:  # Impl-Ctrl
                return True
    return False


def localize_faults(
    design: ast.Node,
    initial_mismatch: set[str],
    max_iterations: int = 64,
) -> FaultLocalization:
    """Run Algorithm 2 on the design AST, one full pass per round."""
    result = FaultLocalization(mismatch=set())
    frontier = set(initial_mismatch)
    nodes = list(design.walk())
    while frontier - result.mismatch and result.iterations < max_iterations:
        result.iterations += 1
        result.mismatch |= frontier
        new_names: set[str] = set()
        for node in nodes:
            if node.node_id is None or not _implicated(node, result.mismatch):
                continue
            result.nodes.add(node.node_id)
            for child in node.walk():
                if child.node_id is not None:
                    result.nodes.add(child.node_id)
                if isinstance(child, ast.Identifier) and child.name not in result.mismatch:
                    new_names.add(child.name)  # Add-Child
        frontier = new_names
    return result
