"""Dataflow-based fault localization (paper §3.1, Algorithm 2).

Starting from the set of output wires/registers whose simulated values
mismatch the oracle, a context-insensitive fixed-point analysis implicates
AST nodes:

- **Impl-Data** — an assignment whose left-hand side names a mismatched
  identifier;
- **Impl-Ctrl** — a conditional statement with a mismatched identifier
  anywhere in it, guard or body.

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


class _TreeIndex:
    """Algorithm 2's view of one tree, built in one pass over it.

    ``ids`` and ``names`` hold each node's id and identifier name (None
    for a node that is no identifier) in preorder, so the nodes under a
    node are one slice of them.  ``spans`` holds that slice for every
    node that can be implicated (one with an id, and an assignment or a
    conditional), and ``triggers`` maps a name to the spans it
    implicates: an assignment's are the names its LHS writes (Impl-Data);
    a conditional's are every identifier under it (Impl-Ctrl).  The
    paper's walkthrough implicates "the entire if-statement wrapping this
    assignment", so a conditional's body counts as well as its guard.
    """

    __slots__ = ("ids", "names", "spans", "triggers")

    def __init__(self, design: ast.Node):
        self.ids: list[int | None] = []
        self.names: list[str | None] = []
        self.spans: list[tuple[int, int]] = []
        self.triggers: dict[str, list[int]] = {}
        self._visit(design)

    def _visit(self, node: ast.Node) -> None:
        start = len(self.ids)
        self.ids.append(node.node_id)
        self.names.append(node.name if isinstance(node, ast.Identifier) else None)
        for field in node._fields:
            value = getattr(node, field)
            if isinstance(value, ast.Node):
                self._visit(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Node):
                        self._visit(item)
        if node.node_id is None:
            return
        if isinstance(node, _ASSIGNMENT_TYPES):
            trigger = lhs_names(node.lhs)
        elif isinstance(node, _CONDITIONAL_TYPES):
            trigger = set(self.names[start:])
            trigger.discard(None)
        else:
            return
        span = len(self.spans)
        self.spans.append((start, len(self.ids)))
        for name in trigger:
            self.triggers.setdefault(name, []).append(span)


def localize_faults(
    design: ast.Node,
    initial_mismatch: set[str],
    max_iterations: int = 64,
) -> FaultLocalization:
    """Run Algorithm 2 on the design AST.

    Each round adds the frontier (the names new to the mismatch set) to
    the mismatch set, implicates every node that the frontier triggers,
    and adds those nodes and all their children to the fault set; the
    children's identifiers not yet in the mismatch set (Add-Child) are
    the next frontier.  A node once implicated stays implicated and adds
    nothing new later, so each node fires at most once: the rounds cost
    one pass to index the tree plus the nodes they implicate.

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
    index = _TreeIndex(design)
    result = FaultLocalization(mismatch=set())
    frontier = set(initial_mismatch)
    fired: set[int] = set()
    while frontier - result.mismatch and result.iterations < max_iterations:
        result.iterations += 1
        result.mismatch |= frontier
        new_names = set()
        for name in frontier:
            for span in index.triggers.get(name, ()):
                if span in fired:
                    continue
                fired.add(span)
                start, end = index.spans[span]
                result.nodes.update(index.ids[start:end])
                new_names.update(index.names[start:end])
        new_names.discard(None)
        frontier = new_names - result.mismatch
    result.nodes.discard(None)
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
