"""``collect_read_names`` against the two-walk reference it replaced."""

import pytest

from repro.benchsuite import PROJECT_NAMES, load_project
from repro.hdl import ast, parse
from repro.sim.processes import collect_read_names


def reference_read_names(node: ast.Node) -> set[str]:
    """Targets in one walk, identifiers in a second."""
    skip_ids: set[int] = set()
    for sub in node.walk():
        if isinstance(sub, (ast.BlockingAssign, ast.NonBlockingAssign)):
            target = sub.lhs
            while isinstance(target, (ast.Index, ast.PartSelect)):
                target = target.target
            if isinstance(target, ast.Identifier):
                skip_ids.add(id(target))
    return {
        sub.name
        for sub in node.walk()
        if isinstance(sub, ast.Identifier) and id(sub) not in skip_ids
    }


@pytest.mark.parametrize("project", PROJECT_NAMES)
def test_every_subtree_matches_the_reference(project):
    design = parse(load_project(project).design_text)
    for node in design.walk():
        assert collect_read_names(node) == reference_read_names(node), node


def test_identifier_shared_by_target_and_read_is_skipped_everywhere():
    tree = parse(
        "module m; reg [3:0] a, b; always @* begin a = b; b = a; end endmodule"
    )
    block = next(n for n in tree.walk() if isinstance(n, ast.Block))
    first, second = block.stmts
    # A patched tree can share one node between two places.  Here the
    # first statement reads the object the second one assigns, so a walk
    # that filtered while walking would still count it as a read.
    first.rhs = second.lhs
    assert collect_read_names(block) == reference_read_names(block) == {"a"}
