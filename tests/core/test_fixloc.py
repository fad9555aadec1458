"""Fix localization rule tests (paper §3.6)."""

import importlib

import pytest

from repro.benchsuite import all_projects
from repro.core import fixloc
from repro.hdl import ast, parse

from . import reference_fixloc as reference

SRC = """
module m;
  reg [3:0] a;
  wire w;
  assign w = a[0];
  always @(posedge clk) begin
    if (a == 4'd1) a <= 4'd0;
    a <= a + 1;
  end
  initial a = 4'd2;
endmodule
"""


def tree():
    return parse(SRC)


class TestInsertionRules:
    def test_sources_are_statements_only(self):
        for node in fixloc.insertion_sources(tree()):
            assert isinstance(node, ast.Stmt)

    def test_sources_exclude_declarations(self):
        sources = fixloc.insertion_sources(tree())
        assert not any(isinstance(n, ast.Decl) for n in sources)

    def test_anchors_inside_procedural_blocks_only(self):
        t = tree()
        anchors = fixloc.insertion_anchors(t)
        assert anchors
        # The continuous assign is not an anchor (not in initial/always).
        cont = next(n for n in t.walk() if isinstance(n, ast.ContinuousAssign))
        assert cont not in anchors

    def test_anchor_must_sit_in_statement_list(self):
        t = parse("module m; reg r; always @(posedge c) r <= 1; endmodule")
        # The lone statement is the Always body (scalar field), not a list
        # member: no insertion anchor exists.
        assert fixloc.insertion_anchors(t) == []


def _same_nodes(actual, expected):
    return len(actual) == len(expected) and all(a is e for a, e in zip(actual, expected))


class TestInsertionAnchorsReference:
    """The one-pass anchors equal the per-statement reference's, node for
    node and in order."""

    @pytest.mark.parametrize("project", all_projects(), ids=lambda p: p.name)
    def test_project_designs(self, project):
        design = parse(project.design_text)
        expected = reference.insertion_anchors(design)
        assert expected
        assert _same_nodes(fixloc.insertion_anchors(design), expected)

    def test_variant_trees_of_golden_gp_trial(self, monkeypatch):
        # The seed-0 dec_numeric trial whose event types are pinned in
        # tests/obs/golden: record every variant tree it mutates.
        from tests.obs.test_engine_telemetry import _run

        # The module, not the ``repro.core.repair`` function it exports.
        repair = importlib.import_module("repro.core.repair")
        variants = []
        real_mutate = repair.mutate

        def recording_mutate(parent, variant_tree, *args, **kwargs):
            variants.append(variant_tree)
            return real_mutate(parent, variant_tree, *args, **kwargs)

        monkeypatch.setattr(repair, "mutate", recording_mutate)
        _run()
        assert variants
        for variant in {id(v): v for v in variants}.values():
            assert _same_nodes(
                fixloc.insertion_anchors(variant), reference.insertion_anchors(variant)
            )


class TestReplacementRules:
    def test_same_type_compatible(self):
        t = tree()
        assigns = [n for n in t.walk() if isinstance(n, ast.NonBlockingAssign)]
        assert fixloc.compatible_replacement(assigns[0], assigns[1])

    def test_statement_family_compatible(self):
        t = tree()
        if_node = next(n for n in t.walk() if isinstance(n, ast.If))
        nba = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        assert fixloc.compatible_replacement(if_node, nba)

    def test_expression_family_compatible(self):
        t = tree()
        ident = next(n for n in t.walk() if isinstance(n, ast.Identifier))
        number = next(n for n in t.walk() if isinstance(n, ast.Number))
        assert fixloc.compatible_replacement(ident, number)

    def test_statement_expression_incompatible(self):
        t = tree()
        nba = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        number = next(n for n in t.walk() if isinstance(n, ast.Number))
        assert not fixloc.compatible_replacement(nba, number)

    def test_module_item_family(self):
        t = tree()
        cont = next(n for n in t.walk() if isinstance(n, ast.ContinuousAssign))
        always = next(n for n in t.walk() if isinstance(n, ast.Always))
        assert fixloc.compatible_replacement(cont, always)

    def test_replacement_sources_exclude_target(self):
        t = tree()
        nba = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        assert nba not in fixloc.replacement_sources(t, nba)


class TestLvalueCheck:
    def test_identifier_ok(self):
        assert fixloc.is_lvalue_expr(ast.Identifier("a"))

    def test_select_ok(self):
        expr = ast.Index(ast.Identifier("a"), ast.Number("0", None, 0, 0))
        assert fixloc.is_lvalue_expr(expr)

    def test_concat_of_identifiers_ok(self):
        expr = ast.Concat([ast.Identifier("a"), ast.Identifier("b")])
        assert fixloc.is_lvalue_expr(expr)

    def test_binary_op_not_lvalue(self):
        expr = ast.BinaryOp("+", ast.Identifier("a"), ast.Identifier("b"))
        assert not fixloc.is_lvalue_expr(expr)

    def test_number_not_lvalue(self):
        assert not fixloc.is_lvalue_expr(ast.Number("1", None, 1, 0))


class TestDeletable:
    def test_deletable_excludes_blocks(self):
        t = tree()
        from repro.core.faultloc import all_statement_ids

        targets = fixloc.deletable_targets(t, all_statement_ids(t))
        assert targets
        assert not any(isinstance(n, ast.Block) for n in targets)

    def test_deletable_respects_fault_set(self):
        t = tree()
        assert fixloc.deletable_targets(t, set()) == []
