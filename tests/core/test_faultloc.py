"""Fault localization tests (paper §3.1, Algorithm 2).

:func:`localize_faults` indexes the tree once and fires each node at
most once; ``TestAgainstReference`` checks it against the round-by-round
statement of the fixed point kept in ``reference_faultloc.py``.
"""

import random

import pytest

from repro.benchsuite import PROJECT_NAMES, load_project
from repro.core.faultloc import all_statement_ids, localize_faults
from repro.core.harness import EngineHarness
from repro.hdl import ast, parse

from ..obs.test_engine_telemetry import _run as run_gp_trial
from . import reference_faultloc as reference

COUNTER = """
module counter(clk, reset, enable, counter_out, overflow_out);
  input clk, reset, enable;
  output [3:0] counter_out;
  output overflow_out;
  reg [3:0] counter_out;
  reg overflow_out;
  always @(posedge clk)
  begin : COUNTER
    if (reset == 1'b1) begin
      counter_out <= #1 4'b0000;
    end
    else if (enable == 1'b1) begin
      counter_out <= #1 counter_out + 1;
    end
    if (counter_out == 4'b1111) begin
      overflow_out <= #1 1'b1;
    end
  end
endmodule
"""


def node_of(tree, node_type, predicate=lambda n: True):
    return next(n for n in tree.walk() if isinstance(n, node_type) and predicate(n))


class TestMotivatingExample:
    """Reproduces the paper's §2/§3.1 walkthrough on the faulty counter."""

    def test_overflow_assignment_implicated(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out"})
        assign = node_of(
            tree,
            ast.NonBlockingAssign,
            lambda n: isinstance(n.lhs, ast.Identifier) and n.lhs.name == "overflow_out",
        )
        assert assign.node_id in result.nodes

    def test_wrapping_if_implicated_by_impl_ctrl(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out"})
        guard = node_of(
            tree,
            ast.If,
            lambda n: "counter_out" in {i.name for i in n.cond.walk() if isinstance(i, ast.Identifier)},
        )
        assert guard.node_id in result.nodes

    def test_counter_out_joins_mismatch_by_add_child(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out"})
        assert "counter_out" in result.mismatch

    def test_transitive_closure_reaches_counter_assignments(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out"})
        incr = node_of(
            tree,
            ast.NonBlockingAssign,
            lambda n: isinstance(n.rhs, ast.BinaryOp),
        )
        assert incr.node_id in result.nodes

    def test_children_of_implicated_nodes_included(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out"})
        assign = node_of(
            tree,
            ast.NonBlockingAssign,
            lambda n: isinstance(n.lhs, ast.Identifier) and n.lhs.name == "overflow_out",
        )
        for child in assign.walk():
            assert child.node_id in result.nodes


class TestAlgorithmProperties:
    def test_empty_mismatch_empty_set(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, set())
        assert result.nodes == set()

    def test_unknown_name_produces_nothing(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"no_such_wire"})
        assert result.nodes == set()

    def test_fixed_point_terminates(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out", "counter_out"})
        assert result.iterations <= 64

    def test_monotone_in_mismatch_set(self):
        tree = parse(COUNTER)
        small = localize_faults(tree, {"overflow_out"})
        large = localize_faults(tree, {"overflow_out", "counter_out"})
        assert small.nodes <= large.nodes

    def test_continuous_assign_impl_data(self):
        tree = parse(
            "module m(o); output o; wire o; wire a; assign o = a; endmodule"
        )
        result = localize_faults(tree, {"o"})
        assign = node_of(tree, ast.ContinuousAssign)
        assert assign.node_id in result.nodes
        assert "a" in result.mismatch

    def test_case_statement_implicated(self):
        tree = parse(
            """
            module m(s, o);
              input [1:0] s;
              output reg o;
              always @(*) case (s) 2'b00 : o = 1; default : o = 0; endcase
            endmodule
            """
        )
        result = localize_faults(tree, {"o"})
        case = node_of(tree, ast.Case)
        assert case.node_id in result.nodes

    def test_part_select_lhs_implicated(self):
        tree = parse(
            "module m; reg [7:0] r; always @(*) r[3:0] = 4'b0; endmodule"
        )
        result = localize_faults(tree, {"r"})
        assign = node_of(tree, ast.BlockingAssign)
        assert assign.node_id in result.nodes

    def test_concat_lhs_implicated(self):
        tree = parse("module m; reg a, b; always @(*) {a, b} = 2'b01; endmodule")
        result = localize_faults(tree, {"b"})
        assign = node_of(tree, ast.BlockingAssign)
        assert assign.node_id in result.nodes

    def test_uniform_ranking_is_a_set(self):
        tree = parse(COUNTER)
        result = localize_faults(tree, {"overflow_out"})
        assert isinstance(result.nodes, set)


class TestFallback:
    def test_all_statement_ids_covers_statements(self):
        tree = parse(COUNTER)
        ids = all_statement_ids(tree)
        for node in tree.walk():
            if isinstance(node, (ast.NonBlockingAssign, ast.If, ast.Block)):
                assert node.node_id in ids

    def test_all_statement_ids_excludes_expressions(self):
        tree = parse(COUNTER)
        ids = all_statement_ids(tree)
        for node in tree.walk():
            if isinstance(node, ast.Identifier):
                assert node.node_id not in ids


def _mismatch_sets(tree, seed, subsets):
    """Each output alone, all outputs together, and ``subsets`` seeded
    random subsets of the design's identifiers."""
    outputs = sorted(
        {n.name for n in tree.walk() if isinstance(n, ast.Decl) and n.kind == "output"}
    )
    names = sorted({n.name for n in tree.walk() if isinstance(n, ast.Identifier)})
    rng = random.Random(seed)
    sets = [{name} for name in outputs] + [set(outputs)]
    for _ in range(subsets):
        sets.append(set(rng.sample(names, rng.randint(1, min(6, len(names))))))
    return sets


def _assert_matches_reference(tree, mismatch):
    for cap in (1, 2, 64):
        fast = localize_faults(tree, mismatch, cap)
        slow = reference.localize_faults(tree, mismatch, cap)
        assert (fast.nodes, fast.mismatch, fast.iterations) == (
            slow.nodes, slow.mismatch, slow.iterations
        ), (sorted(mismatch), cap)


class TestAgainstReference:
    @pytest.mark.parametrize("project", PROJECT_NAMES)
    def test_project_design(self, project):
        tree = parse(load_project(project).design_text)
        for mismatch in _mismatch_sets(tree, project, subsets=12):
            _assert_matches_reference(tree, mismatch)

    def test_gp_candidate_trees(self, monkeypatch):
        trees: dict[int, ast.Source] = {}
        original = EngineHarness._applied

        def recording(self, patch):
            result = original(self, patch)
            trees.setdefault(id(result[0]), result[0])
            return result

        monkeypatch.setattr(EngineHarness, "_applied", recording)
        run_gp_trial()
        assert len(trees) > 10
        for index, tree in enumerate(trees.values()):
            for mismatch in _mismatch_sets(tree, index, subsets=2):
                _assert_matches_reference(tree, mismatch)
