"""Patch serialization round-trip tests."""

import json

import pytest

from repro.core.patch import Edit, Patch
from repro.core.serialize import (
    SerializeError,
    edit_from_dict,
    edit_to_dict,
    outcome_to_json,
    patch_from_json,
    patch_to_json,
)
from repro.hdl import ast, generate, parse

SRC = """
module m;
  reg [3:0] a, b;
  always @(posedge clk) begin
    a <= 4'd1;
    b <= a + 1;
  end
endmodule
"""


def base():
    return parse(SRC)


def nba(tree, index):
    return [n for n in tree.walk() if isinstance(n, ast.NonBlockingAssign)][index]


class TestRoundTrip:
    def test_empty_patch(self):
        restored = patch_from_json(patch_to_json(Patch.empty()))
        assert len(restored) == 0

    def test_delete_edit(self):
        tree = base()
        patch = Patch([Edit("delete", nba(tree, 0).node_id)])
        restored = patch_from_json(patch_to_json(patch))
        assert restored.edits[0].kind == "delete"
        assert restored.edits[0].target_id == patch.edits[0].target_id

    def test_template_edit(self):
        patch = Patch([Edit("template", 7, template="negate_conditional")])
        restored = patch_from_json(patch_to_json(patch))
        assert restored.edits[0].template == "negate_conditional"

    def test_statement_payload(self):
        tree = base()
        donor = nba(tree, 1)
        patch = Patch([Edit("insert_after", nba(tree, 0).node_id, donor.clone())])
        restored = patch_from_json(patch_to_json(patch))
        assert isinstance(restored.edits[0].payload, ast.NonBlockingAssign)

    def test_expression_payload(self):
        tree = base()
        number = next(n for n in tree.walk() if isinstance(n, ast.Number))
        patch = Patch([Edit("replace", 5, number.clone())])
        restored = patch_from_json(patch_to_json(patch))
        assert isinstance(restored.edits[0].payload, ast.Number)

    def test_applied_results_identical(self):
        tree = base()
        donor = nba(tree, 1)
        patch = Patch(
            [
                Edit("insert_after", nba(tree, 0).node_id, donor.clone()),
                Edit("delete", nba(tree, 1).node_id),
            ]
        )
        restored = patch_from_json(patch_to_json(patch))
        assert generate(patch.apply(tree)) == generate(restored.apply(tree))

    def test_unknown_format_rejected(self):
        with pytest.raises(SerializeError):
            patch_from_json(json.dumps({"format": "v99", "edits": []}))


FRAGMENTS = """
module f(clk, rst, sel, y);
  input clk, rst;
  input [1:0] sel;
  output reg [3:0] y;
  always @(posedge clk or negedge rst) begin
    casez (sel)
      2'b0? : y <= 4'd1;
      2'b10 : y <= 4'd2;
      default : y <= 4'd3;
    endcase
  end
endmodule
"""


class TestFragmentPayloads:
    """Case arms and sensitivity items, which GP's replace may swap."""

    def _roundtrip(self, kind):
        tree = parse(FRAGMENTS)
        first, *_, last = [n for n in tree.walk() if isinstance(n, kind)]
        patch = Patch([Edit("replace", first.node_id, last.clone())])
        restored = patch_from_json(patch_to_json(patch))
        assert isinstance(restored.edits[0].payload, kind)
        assert generate(restored.apply(tree)) == generate(patch.apply(tree))
        return restored

    def test_case_item_payload(self):
        restored = self._roundtrip(ast.CaseItem)
        assert restored.edits[0].payload.exprs == []  # the default arm

    def test_sens_item_payload(self):
        restored = self._roundtrip(ast.SensItem)
        assert restored.edits[0].payload.edge == "negedge"

    def test_dec_numeric_report_reloads(self):
        """A GP run whose best patch replaces a case arm."""
        from repro.api import run_request
        from repro.service import RepairRequest

        request = RepairRequest(
            scenario="dec_numeric",
            seeds=(2,),
            config={
                "population_size": 120, "max_generations": 4,
                "max_fitness_evals": 600, "minimize_budget": 64,
                "max_wall_seconds": 1e6,
            },
        )
        outcome = run_request(request)
        assert any(isinstance(e.payload, ast.CaseItem) for e in outcome.patch.edits)
        report = json.loads(outcome_to_json(outcome, "dec_numeric"))
        reloaded = [edit_from_dict(entry) for entry in report["patchlist"]]
        assert [edit_to_dict(e) for e in reloaded] == report["patchlist"]


class TestOutcomeReport:
    def test_report_fields(self):
        from repro.core.repair import RepairOutcome

        outcome = RepairOutcome(
            plausible=True,
            patch=Patch([Edit("template", 3, template="sens_posedge")]),
            fitness=1.0,
            repaired_source="module m; endmodule",
            generations=2,
            fitness_evals=50,
            simulations=40,
            elapsed_seconds=1.25,
            best_fitness_history=[0.5, 1.0],
            seed=7,
        )
        data = json.loads(outcome_to_json(outcome, "counter_sens"))
        assert data["scenario"] == "counter_sens"
        assert data["plausible"] is True
        assert data["patchlist"][0]["template"] == "sens_posedge"
        assert data["best_fitness_history"] == [0.5, 1.0]
