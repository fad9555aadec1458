"""Figure 3: a representative multi-edit repair for sdram_controller.

The paper's Figure 3 shows a Category-2 defect in the controller's reset
block (one assignment missing, one incorrect) repaired by CirFix with an
insert and a replace.  This experiment reproduces exactly that shape: it
constructs the known-good two-edit patch, verifies it is plausible, and
shows the repaired reset block.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchsuite import load_scenario
from ..core.patch import Edit, Patch
from ..core.repair import CirFixEngine
from ..hdl import ast, generate
from .common import QUICK


@dataclass
class Figure3Data:
    faulty_fitness: float
    patch: Patch
    patched_fitness: float
    repaired_block: str
    edit_kinds: list[str]


def _find_reset_anchor(tree: ast.Source) -> tuple[int, ast.Node, int]:
    """Locate the reset branch: returns (anchor id for insert, donor busy
    assignment, id of the wrong rd_data assignment)."""
    donor_busy: ast.Node | None = None
    wrong_rd_data_rhs: int | None = None
    anchor_id: int | None = None
    for node in tree.walk():
        if isinstance(node, ast.NonBlockingAssign):
            lhs, rhs = node.lhs, node.rhs
            if isinstance(lhs, ast.Identifier) and lhs.name == "busy":
                if isinstance(rhs, ast.Number) and rhs.aval == 1 and donor_busy is None:
                    donor_busy = node
            if (
                isinstance(lhs, ast.Identifier)
                and lhs.name == "rd_data"
                and isinstance(rhs, ast.Identifier)
                and rhs.name == "wr_data"
            ):
                wrong_rd_data_rhs = rhs.node_id
                anchor_id = node.node_id
    if donor_busy is None or wrong_rd_data_rhs is None or anchor_id is None:
        raise RuntimeError("sdram_reset defect structure not found")
    return anchor_id, donor_busy, wrong_rd_data_rhs


def compute_figure3() -> Figure3Data:
    """Construct and verify the Figure 3 insert+replace repair."""
    scenario = load_scenario("sdram_reset")
    engine = CirFixEngine(scenario.problem(), scenario.suggested_config(QUICK), seed=0)
    faulty_fitness = engine.evaluate(Patch.empty()).fitness

    base = scenario.problem().design
    anchor_id, donor_busy, wrong_rhs_id = _find_reset_anchor(base)
    zero8 = ast.Number("8'h00", 8, 0, 0)
    patch = Patch(
        [
            Edit("insert_after", anchor_id, donor_busy.clone()),
            Edit("replace", wrong_rhs_id, zero8),
        ]
    )
    evaluation = engine.evaluate(patch)

    repaired = patch.apply(base)
    block = _render_reset_block(repaired)
    return Figure3Data(
        faulty_fitness=faulty_fitness,
        patch=patch,
        patched_fitness=evaluation.fitness,
        repaired_block=block,
        edit_kinds=[e.kind for e in patch.edits],
    )


def _render_reset_block(tree: ast.Source) -> str:
    for node in tree.walk():
        if isinstance(node, ast.If):
            cond_text = generate(node.cond)
            if "rst_n" in cond_text and node.then_stmt is not None:
                return generate(node.then_stmt)
    return "<reset block not found>"


def main() -> None:
    """Print Figure 3."""
    data = compute_figure3()
    print("Figure 3: multi-edit repair for sdram_controller")
    print(f"faulty fitness: {data.faulty_fitness:.3f} (paper: 0.818)")
    print(f"edits: {data.edit_kinds} (paper: insert + replace)")
    print(f"patched fitness: {data.patched_fitness:.3f}")
    print("repaired reset block:")
    print(data.repaired_block)


if __name__ == "__main__":  # pragma: no cover
    main()
