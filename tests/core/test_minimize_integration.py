"""Minimization integration: a bloated plausible patch shrinks to its
essential edits through the real evaluation pipeline."""

from repro.core import TEST_CONFIG, CirFixEngine
from repro.core.minimize import minimize_patch
from repro.core.patch import Edit, Patch
from repro.benchsuite import load_scenario
from repro.hdl import ast


def bloated_counter_patch(base: ast.Source) -> Patch:
    """The two essential counter_reset edits plus three bloat edits.

    The first two edits are the repair; the last three are meant to have
    no effect on the testbench.
    """
    nba_nodes = [n for n in base.walk() if isinstance(n, ast.NonBlockingAssign)]
    anchor = nba_nodes[0]        # counter_out <= #1 4'b0000;
    donor = nba_nodes[2]         # overflow_out <= #1 1'b1;

    # The essential pair: insert the overflow assignment, flip its constant.
    core = Patch([Edit("insert_after", anchor.node_id, donor.clone())])
    tree1 = core.apply(base)
    inserted_number = next(
        n
        for n in tree1.walk()
        if isinstance(n, ast.Number) and n.text == "1'b1" and (n.node_id or 0) > 10_000
    )
    essential = core.extended(
        Edit("template", inserted_number.node_id, template="decrement_by_one")
    )

    # Bloat: three no-effect edits (duplicate inserts after the last stmt).
    tail = nba_nodes[2]
    return Patch(
        essential.edits
        + [
            Edit("insert_after", tail.node_id, tail.clone()),
            Edit("insert_after", tail.node_id, tail.clone()),
            Edit("template", nba_nodes[1].rhs.node_id, template="increment_by_one"),
        ]
    )


def test_bloated_counter_patch_minimizes_to_two_edits():
    scenario = load_scenario("counter_reset")
    engine = CirFixEngine(scenario.problem(), scenario.suggested_config(TEST_CONFIG))
    bloated = bloated_counter_patch(scenario.problem().design)
    # The bloat must not break plausibility for this test to be meaningful;
    # the extra template targets the (a+1) expression -> (a+1)+1 would break
    # it, so check and drop to the harmless subset if needed.
    if not engine.evaluate(bloated).is_plausible:
        bloated = Patch(bloated.edits[:4])
    assert engine.evaluate(bloated).is_plausible

    minimized = minimize_patch(bloated, lambda p: engine.evaluate(p).is_plausible)
    assert engine.evaluate(minimized).is_plausible
    assert len(minimized) <= 2
