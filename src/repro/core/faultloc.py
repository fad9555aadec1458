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
from .variant import VariantIndex


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


def _triggers(index: VariantIndex) -> tuple[list[tuple[int, int]], dict[str, list[int]]]:
    """Algorithm 2's view of an indexed tree, ``(spans, triggers)``,
    derived once and kept on the index.

    A node's subtree is one slice of the index's preorder arrays.
    ``spans`` holds that slice for every node that can be implicated
    (one with an id, and an assignment or a conditional), and
    ``triggers`` maps a name to the spans it implicates: an assignment's
    are the names its LHS writes (Impl-Data); a conditional's are every
    identifier under it (Impl-Ctrl).  The paper's walkthrough implicates
    "the entire if-statement wrapping this assignment", so a
    conditional's body counts as well as its guard.
    """
    view = index.views.get("faultloc")
    if view is None:
        ids, names, ends = index.ids, index.names, index.ends
        spans: list[tuple[int, int]] = []
        triggers: dict[str, list[int]] = {}
        for position, node in enumerate(index.nodes):
            if ids[position] is None:
                continue
            if isinstance(node, _ASSIGNMENT_TYPES):
                trigger = lhs_names(node.lhs)
            elif isinstance(node, _CONDITIONAL_TYPES):
                trigger = set(names[position:ends[position]])
                trigger.discard(None)
            else:
                continue
            span = len(spans)
            spans.append((position, ends[position]))
            for name in trigger:
                triggers.setdefault(name, []).append(span)
        view = index.views["faultloc"] = (spans, triggers)
    return view  # type: ignore[return-value]


def localize_faults(
    design: ast.Node | VariantIndex,
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
    the tree's index (shared with the GP operators when the harness
    passes the variant's :class:`~repro.core.variant.VariantIndex`) plus
    the nodes they implicate.

    Args:
        design: The (possibly already-patched) design AST — typically the
            :class:`~repro.hdl.ast.Source` restricted to design modules —
            or its :class:`~repro.core.variant.VariantIndex`.
        initial_mismatch: Output identifiers with mismatched values, i.e.
            ``get_output_mismatch(O, S)`` from
            :func:`repro.instrument.trace.output_mismatch`.
        max_iterations: Safety bound on the fixed point (the mismatch set
            is monotone, so the loop terminates anyway).

    Returns:
        The fault localization set plus the saturated mismatch set.
    """
    index = VariantIndex.of(design)
    spans, triggers = _triggers(index)
    ids, names = index.ids, index.names
    result = FaultLocalization(mismatch=set())
    frontier = set(initial_mismatch)
    fired: set[int] = set()
    while frontier - result.mismatch and result.iterations < max_iterations:
        result.iterations += 1
        result.mismatch |= frontier
        new_names = set()
        for name in frontier:
            for span in triggers.get(name, ()):
                if span in fired:
                    continue
                fired.add(span)
                start, end = spans[span]
                result.nodes.update(ids[start:end])
                new_names.update(names[start:end])
        new_names.discard(None)
        frontier = new_names - result.mismatch
    result.nodes.discard(None)
    return result


def all_statement_ids(design: ast.Node | VariantIndex) -> set[int]:
    """Fallback localization: every statement node (used when a parent
    variant cannot be simulated at all)."""
    index = VariantIndex.of(design)
    return {
        node_id
        for node_id, node in zip(index.ids, index.nodes)
        if node_id is not None
        and isinstance(node, (ast.Stmt, ast.ContinuousAssign, ast.Always))
    }
