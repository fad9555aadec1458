"""AST structural-operation tests (walk / find / replace / insert / clone)."""

import copy

from repro.benchsuite import PROJECT_NAMES, load_project
from repro.hdl import ast, parse
from repro.hdl.node_ids import clear_ids, max_node_id, number_nodes

SRC = """
module m;
  reg [3:0] q;
  always @(posedge clk) begin
    if (en) q <= q + 1;
  end
endmodule
"""


def tree():
    return parse(SRC)


def _mutable_parts(root):
    """Identities of every node and every list attribute under ``root``."""
    nodes = list(root.walk())
    lists = [v for n in nodes for v in vars(n).values() if isinstance(v, list)]
    return {id(part) for part in nodes + lists}


class TestNumbering:
    def test_preorder_ids_sequential(self):
        t = tree()
        ids = [n.node_id for n in t.walk()]
        assert ids == list(range(1, len(ids) + 1))

    def test_max_node_id(self):
        t = tree()
        assert max_node_id(t) == sum(1 for _ in t.walk())

    def test_clear_ids(self):
        t = tree()
        clear_ids(t)
        assert all(n.node_id is None for n in t.walk())

    def test_number_from_offset(self):
        t = tree()
        next_id = number_nodes(t, start=100)
        assert min(n.node_id for n in t.walk()) == 100
        assert next_id == 100 + sum(1 for _ in t.walk())


class TestFindReplace:
    def test_find_returns_node(self):
        t = tree()
        target = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        assert t.find(target.node_id) is target

    def test_find_missing_returns_none(self):
        assert tree().find(10**9) is None

    def test_replace_scalar_field(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        new_cond = ast.Identifier("other")
        new_cond.node_id = 9999
        assert t.replace(if_stmt.cond.node_id, new_cond)
        assert if_stmt.cond is new_cond

    def test_replace_list_member(self):
        t = tree()
        nba = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        replacement = ast.NullStmt()
        assert t.replace(nba.node_id, replacement)
        assert t.find(nba.node_id) is None

    def test_replace_with_none_deletes_from_list(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        block = next(
            n for n in t.walk() if isinstance(n, ast.Block) and if_stmt in n.stmts
        )
        before = len(block.stmts)
        assert t.replace(if_stmt.node_id, None)
        assert len(block.stmts) == before - 1

    def test_replace_missing_returns_false(self):
        assert tree().replace(10**9, ast.NullStmt()) is False


class TestInsert:
    def test_insert_after_in_block(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        new_stmt = ast.NullStmt()
        new_stmt.node_id = 7777
        assert t.insert_after(if_stmt.node_id, new_stmt)
        block = next(n for n in t.walk() if isinstance(n, ast.Block))
        assert block.stmts[-1] is new_stmt

    def test_insert_after_scalar_position_fails(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        # The condition is a scalar field, not a list member.
        assert t.insert_after(if_stmt.cond.node_id, ast.NullStmt()) is False


class TestCloneAndParents:
    def test_clone_preserves_ids_and_is_deep(self):
        t = tree()
        c = t.clone()
        assert [n.node_id for n in t.walk()] == [n.node_id for n in c.walk()]
        nba = next(n for n in c.walk() if isinstance(n, ast.NonBlockingAssign))
        c.replace(nba.node_id, ast.NullStmt())
        # The original is untouched.
        assert any(isinstance(n, ast.NonBlockingAssign) for n in t.walk())

    def test_clone_equals_deepcopy_and_shares_nothing(self):
        for name in PROJECT_NAMES:
            project = load_project(name)
            for original in (parse(project.design_text), parse(project.testbench_text)):
                c = original.clone()
                assert ast.structurally_equal(c, copy.deepcopy(original), compare_ids=True)
                assert [n.line for n in c.walk()] == [n.line for n in original.walk()]
                assert not _mutable_parts(c) & _mutable_parts(original)

    def test_copy_is_shallow_with_its_own_lists(self):
        t = tree()
        block = next(n for n in t.walk() if isinstance(n, ast.Block))
        c = block.copy()
        assert type(c) is ast.Block and c.node_id == block.node_id
        assert c.stmts == block.stmts and c.stmts is not block.stmts
        assert all(a is b for a, b in zip(c.stmts, block.stmts))
        c.stmts.append(ast.NullStmt())
        assert len(c.stmts) == len(block.stmts) + 1

    def test_module_lookup_helpers(self):
        t = tree()
        mod = t.module("m")
        assert mod is not None
        assert t.module("zzz") is None
