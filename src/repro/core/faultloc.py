"""Dataflow-based fault localization (paper §3.1, Algorithm 2).

Starting from the set of output wires/registers whose simulated values
mismatch the oracle, a context-insensitive fixed-point analysis implicates
AST nodes:

- **Impl-Data** — an assignment whose left-hand side names a mismatched
  identifier;
- **Impl-Ctrl** — a conditional statement whose condition reads a
  mismatched identifier.

Every implicated node and all of its children join the fault localization
set; child identifiers not yet in the mismatch set are added (**Add-Child**)
and the analysis repeats until the mismatch set is stable.  The result is a
*uniformly-ranked set* of node ids (not a ranked list — the paper argues
parallel HDL structure makes uniform ranking appropriate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast
from ..hdl.dataflow import lhs_names


@dataclass
class FaultLocalization:
    """Result of the fixed-point analysis."""

    #: Implicated node ids (uniformly ranked).
    nodes: set[int] = field(default_factory=set)
    #: Final mismatch identifier set after the fixed point.
    mismatch: set[str] = field(default_factory=set)
    #: Number of fixed-point iterations performed.
    iterations: int = 0

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


_ASSIGNMENT_TYPES = (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)
_CONDITIONAL_TYPES = (ast.If, ast.Case, ast.While, ast.Ternary, ast.For)


# The name-level queries are shared with repro.lint and live in
# repro.hdl.dataflow; this adapter applies the LHS query to an assignment.
def _lhs_names(node: ast.Node) -> set[str]:
    """Identifier names written by an assignment's LHS (through selects
    and concatenations)."""
    return lhs_names(node.lhs)  # type: ignore[attr-defined]


def _implicated(node: ast.Node, mismatch: set[str]) -> bool:
    """The paper's ``implicated(node, mismatch)`` predicate.

    Impl-Ctrl matches the paper's motivating-example walkthrough: "the
    entire if-statement wrapping this assignment gets implicated" — i.e. a
    conditional statement is implicated when *any* identifier in the whole
    statement (guard or body) is in the mismatch set.
    """
    if isinstance(node, _ASSIGNMENT_TYPES):
        if _lhs_names(node) & mismatch:  # Impl-Data
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
    """Run Algorithm 2 on the design AST.

    Args:
        design: The (possibly already-patched) design AST — typically the
            :class:`~repro.hdl.ast.Source` restricted to design modules.
        initial_mismatch: Output identifiers with mismatched values, i.e.
            ``get_output_mismatch(O, S)`` from
            :func:`repro.instrument.trace.output_mismatch`.
        max_iterations: Safety bound on the fixed point (the mismatch set
            is monotone, so the loop terminates anyway).

    Returns:
        The fault localization set plus the saturated mismatch set.
    """
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


def all_statement_ids(design: ast.Node) -> set[int]:
    """Fallback localization: every statement node (used when a parent
    variant cannot be simulated at all)."""
    return {
        node.node_id
        for node in design.walk()
        if node.node_id is not None
        and isinstance(node, (ast.Stmt, ast.ContinuousAssign, ast.Always))
    }
