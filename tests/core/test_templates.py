"""Repair template tests (paper Table 1): all nine templates."""

from repro.core.templates import ALL_TEMPLATES, TEMPLATES_BY_CATEGORY, applicable_templates, apply_template
from repro.hdl import ast, generate, parse, structural_diff

SRC = """
module m;
  reg [3:0] q;
  reg en;
  always @(posedge clk) begin
    if (en == 1'b1) begin
      q = q + 1;
    end
    q <= 4'd5;
  end
  always @(negedge clk) begin
    while (q < 4'd9) begin
      q = q + 1;
    end
  end
endmodule
"""


def tree():
    return parse(SRC)


def find(t, node_type, predicate=lambda n: True):
    return next(n for n in t.walk() if isinstance(n, node_type) and predicate(n))


class TestInventory:
    def test_nine_templates_in_four_categories(self):
        assert len(ALL_TEMPLATES) == 9
        assert len(TEMPLATES_BY_CATEGORY) == 4
        assert len(TEMPLATES_BY_CATEGORY["sensitivity"]) == 4

    def test_applicability(self):
        t = tree()
        if_node = find(t, ast.If)
        assert "negate_conditional" in applicable_templates(if_node)
        always = find(t, ast.Always)
        assert set(TEMPLATES_BY_CATEGORY["sensitivity"]) <= set(
            applicable_templates(always)
        )
        blocking = find(t, ast.BlockingAssign)
        assert applicable_templates(blocking) == ["blocking_to_nonblocking"]
        number = find(t, ast.Number)
        assert "increment_by_one" in applicable_templates(number)

    def test_inapplicable_returns_empty(self):
        t = tree()
        block = find(t, ast.Block)
        assert applicable_templates(block) == []


class TestConditionals:
    def test_negate_if(self):
        t = tree()
        if_node = find(t, ast.If)
        assert apply_template("negate_conditional", t, if_node.node_id, 90_000)
        assert "!((en == 1'b1))" in generate(t)

    def test_negate_while(self):
        t = tree()
        while_node = find(t, ast.While)
        assert apply_template("negate_conditional", t, while_node.node_id, 90_000)
        assert "!((q < 4'd9))" in generate(t)

    def test_negate_preserves_condition_ids(self):
        t = tree()
        if_node = find(t, ast.If)
        cond_id = if_node.cond.node_id
        apply_template("negate_conditional", t, if_node.node_id, 90_000)
        assert t.find(cond_id) is not None


class TestSensitivity:
    def test_to_negedge(self):
        t = tree()
        always = find(t, ast.Always)
        assert apply_template("sens_negedge", t, always.node_id, 90_000)
        assert "@(negedge clk)" in generate(t).split("always")[1]

    def test_to_posedge_on_sens_item(self):
        t = tree()
        item = find(t, ast.SensItem, lambda n: n.edge == "negedge")
        assert apply_template("sens_posedge", t, item.node_id, 90_000)
        assert "negedge" not in generate(t)

    def test_to_level(self):
        t = tree()
        always = find(t, ast.Always)
        assert apply_template("sens_level", t, always.node_id, 90_000)
        assert "@(clk)" in generate(t)

    def test_any_change_becomes_star(self):
        t = tree()
        always = find(t, ast.Always)
        assert apply_template("sens_any_change", t, always.node_id, 90_000)
        assert "@(*)" in generate(t)


class TestAssignments:
    def test_blocking_to_nonblocking(self):
        t = tree()
        target = find(t, ast.BlockingAssign)
        assert apply_template("blocking_to_nonblocking", t, target.node_id, 90_000)
        assert "q <= (q + 1);" in generate(t)

    def test_nonblocking_to_blocking(self):
        t = tree()
        target = find(t, ast.NonBlockingAssign)
        assert apply_template("nonblocking_to_blocking", t, target.node_id, 90_000)
        assert "q = 4'd5;" in generate(t)

    def test_delay_preserved(self):
        t = parse("module m; reg r; always @(posedge c) r <= #1 1'b0; endmodule")
        target = find(t, ast.NonBlockingAssign)
        apply_template("nonblocking_to_blocking", t, target.node_id, 90_000)
        assert "r = #1 1'b0;" in generate(t)


class TestNumeric:
    def test_increment_number(self):
        t = tree()
        number = find(t, ast.Number, lambda n: n.text == "4'd5")
        assert apply_template("increment_by_one", t, number.node_id, 90_000)
        assert "4'd6" in generate(t)

    def test_decrement_number(self):
        t = tree()
        number = find(t, ast.Number, lambda n: n.text == "4'd5")
        assert apply_template("decrement_by_one", t, number.node_id, 90_000)
        assert "4'd4" in generate(t)

    def test_decrement_wraps_at_width(self):
        t = parse("module m; reg r; initial r = 1'b0; endmodule")
        number = find(t, ast.Number)
        apply_template("decrement_by_one", t, number.node_id, 90_000)
        assert "1'd1" in generate(t)

    def test_increment_identifier_wraps_in_addition(self):
        t = tree()
        ident = find(t, ast.Identifier, lambda n: n.name == "en")
        assert apply_template("increment_by_one", t, ident.node_id, 90_000)
        assert "(en + 1)" in generate(t)

    def test_lvalue_head_identifier_refused(self):
        # Wrapping the assignment target would emit ``(q + 1) = ...`` which
        # no longer parses (fuzz reproducer: tests/fuzz/corpus).
        t = tree()
        assign = find(t, ast.BlockingAssign)
        lhs = assign.lhs
        assert isinstance(lhs, ast.Identifier)
        assert not apply_template("increment_by_one", t, lhs.node_id, 90_000)
        parse(generate(t))  # unchanged, still parses

    def test_indexed_lvalue_head_refused_but_index_expr_allowed(self):
        t = parse(
            "module m; reg [3:0] v; reg [1:0] i;\n"
            "always @(*) v[i] = 1'b0;\nendmodule"
        )
        assign = find(t, ast.BlockingAssign)
        head = assign.lhs.target
        index = assign.lhs.index
        assert not apply_template("increment_by_one", t, head.node_id, 90_000)
        assert apply_template("increment_by_one", t, index.node_id, 91_000)
        parse(generate(t))
        assert "v[(i + 1)]" in generate(t)

    def test_xz_number_rejected(self):
        t = parse("module m; reg r; initial r = 1'bx; endmodule")
        number = find(t, ast.Number)
        assert not apply_template("increment_by_one", t, number.node_id, 90_000)


class TestLiteralsParseBack:
    """A literal a template builds is the literal its text parses as: an
    unsized decimal is signed (Verilog-2001), so the tree the engine
    scores is the program its text is."""

    def test_increment_identifier(self):
        t = tree()
        ident = find(t, ast.Identifier, lambda n: n.name == "en")
        assert apply_template("increment_by_one", t, ident.node_id, 90_000)
        assert structural_diff(parse(generate(t)), t) is None

    def test_increment_unsized_literal(self):
        t = parse("module m; reg [7:0] r; initial r = 7; endmodule")
        number = find(t, ast.BlockingAssign).rhs
        assert apply_template("increment_by_one", t, number.node_id, 90_000)
        assert "r = 8;" in generate(t)
        assert structural_diff(parse(generate(t)), t) is None

    def test_from_int(self):
        t = parse("module m; reg [7:0] r; initial r = 8'd0; endmodule")
        assign = find(t, ast.BlockingAssign)
        assign.rhs = ast.Number.from_int(3)
        assert structural_diff(parse(generate(t)), t) is None


class TestStaleness:
    def test_stale_target_noop(self):
        t = tree()
        assert not apply_template("negate_conditional", t, 10**9, 90_000)

    def test_wrong_template_for_node_noop(self):
        t = tree()
        if_node = find(t, ast.If)
        assert not apply_template("blocking_to_nonblocking", t, if_node.node_id, 90_000)

    def test_all_results_still_parse(self):
        for name in ALL_TEMPLATES:
            t = tree()
            for node in list(t.walk()):
                if name in applicable_templates(node) and node.node_id:
                    if apply_template(name, t, node.node_id, 90_000):
                        parse(generate(t))  # must stay syntactically valid
                    break
