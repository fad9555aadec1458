"""Code generation and round-trip tests."""

import pytest

from repro.hdl import InexactCodegen, ast, generate, parse, structural_diff
from repro.benchsuite import all_projects


def roundtrip(source):
    """parse → generate → parse → generate must be a fixed point."""
    first = generate(parse(source))
    second = generate(parse(first))
    assert first == second
    return first


class TestRoundTrip:
    def test_simple_module(self):
        text = roundtrip("module m(a); input a; endmodule")
        assert "module m(a);" in text

    def test_always_block(self):
        text = roundtrip(
            "module m; reg q; always @(posedge clk) begin q <= #1 !q; end endmodule"
        )
        assert "always @(posedge clk)" in text
        assert "q <= #1" in text

    def test_case_statement(self):
        text = roundtrip(
            "module m; reg [1:0] s; reg o; always @(*) case (s) 2'b00 : o = 0;"
            " default : o = 1; endcase endmodule"
        )
        assert "endcase" in text

    def test_for_loop(self):
        roundtrip(
            "module m; integer i; reg [7:0] a; initial for (i = 0; i < 8; i = i + 1) a = i; endmodule"
        )

    def test_functions_and_tasks(self):
        roundtrip(
            "module m; function [3:0] f; input [3:0] x; f = x ^ 1; endfunction "
            "task t; input v; #1; endtask endmodule"
        )

    def test_events_and_triggers(self):
        text = roundtrip(
            "module m; event e; initial begin -> e; @(e); end endmodule"
        )
        assert "-> e;" in text

    def test_instance_with_params(self):
        text = roundtrip("module m; sub #(.W(4)) u(.a(1'b0)); endmodule")
        assert "#(.W(4))" in text

    def test_number_spelling_preserved(self):
        text = roundtrip("module m; wire [7:0] w; assign w = 8'hA5; endmodule")
        assert "8'hA5" in text

    @pytest.mark.parametrize("project", all_projects(), ids=lambda p: p.name)
    def test_all_benchmark_designs_roundtrip(self, project):
        roundtrip(project.design_text)
        roundtrip(project.testbench_text)
        if project.validate_text:
            roundtrip(project.validate_text)


class TestFragmentRendering:
    def test_expression(self):
        expr = parse("module m; wire w; assign w = a + b * c; endmodule")
        item = expr.modules[0].items[-1]
        assert generate(item.rhs) == "(a + (b * c))"

    def test_statement(self):
        tree = parse("module m; reg a; initial a = 1; endmodule")
        item = tree.modules[0].items[-1]
        assert generate(item.body).strip() == "a = 1;"

    def test_missing_expression_raises(self):
        from repro.hdl.codegen import CodegenError

        broken = ast.BlockingAssign(ast.Identifier("a"), None)  # type: ignore[arg-type]
        with pytest.raises(CodegenError):
            generate(broken)


#: Escaped identifiers in every position codegen writes a name: module,
#: port, decl, instance (module and instance name), port argument,
#: function, task, named block, identifier, event trigger and disable;
#: ``\module`` is an escaped keyword.
ESCAPED_NAMES_SOURCE = r"""
module \top+mod (\in+a , out);
  input \in+a ;
  output out;
  reg \r+1 ;
  reg \module ;
  event \ev+t ;
  wire \w+k ;
  \sub+mod \u+1 (.\p+a (\in+a ), .q(\w+k ));
  function \f+n ;
    input x;
    \f+n = x;
  endfunction
  task \t+k ;
    begin
      \r+1 = 0;
    end
  endtask
  always @(\in+a ) begin : \blk+1
    \r+1 = \f+n (\in+a );
    \module = \r+1 ;
    \t+k ;
    -> \ev+t ;
    disable \blk+1 ;
  end
  assign out = \r+1 ;
endmodule

module \sub+mod (\p+a , q);
  input \p+a ;
  output q;
  assign q = \p+a ;
endmodule
"""


class TestEscapedNames:
    def test_escaped_names_round_trip(self):
        tree = parse(ESCAPED_NAMES_SOURCE)
        again = parse(generate(tree))
        assert ast.structural_diff(tree, again, compare_ids=True) is None

    @pytest.mark.parametrize(
        "name",
        ["top+mod", "in+a", "r+1", "module", "ev+t", "sub+mod", "u+1", "p+a",
         "f+n", "t+k", "blk+1"],
    )
    def test_name_is_written_escaped(self, name):
        assert f"\\{name} " in generate(parse(ESCAPED_NAMES_SOURCE))

    def test_plain_names_and_system_names_stay_unescaped(self):
        text = generate(
            parse("module m(a); input a; initial $display(\"%d\", $time, a$b); endmodule")
        )
        assert "\\" not in text
        assert "$display" in text and "$time" in text


LOOP = """
module m(clk, q);
  input clk;
  output [3:0] q;
  reg [3:0] q;
  reg [3:0] v;
  integer i;
  always @(posedge clk)
  begin
    if (clk)
      for (i = 0; i < 4; i = i + 1)
        q[i] <= #1 v[i];
    else
      q <= {v[0], v[1]};
  end
endmodule
"""


def _first(tree, node_type):
    return next(n for n in tree.walk() if isinstance(n, node_type))


def _nonblocking_loop_init(t):
    loop = _first(t, ast.For)
    loop.init = ast.NonBlockingAssign(loop.init.lhs, loop.init.rhs)


def _delayed_loop_step(t):
    _first(t, ast.For).step.delay = ast.Number.from_int(1)


def _else_binds_inward(t):
    # The loop body becomes an if without an else: the outer else would
    # bind to it.
    loop = _first(t, ast.For)
    loop.body = ast.If(ast.Identifier("clk"), loop.body)


def _literal_target(t):
    _first(t, ast.NonBlockingAssign).lhs.target = ast.Number.from_int(0)


def _select_of_unary(t):
    select = _first(t, ast.NonBlockingAssign).rhs
    select.target = ast.UnaryOp("~", select.target)


def _selected_delay(t):
    assign = _first(t, ast.NonBlockingAssign)
    assign.delay = ast.Index(ast.Identifier("v"), ast.Number.from_int(0))


def _empty_concat(t):
    _first(t, ast.Concat).parts.clear()


def _missing_statement(t):
    _first(t, ast.If).then_stmt = None


def _empty_senslist(t):
    _first(t, ast.SensList).items.clear()


class TestStrict:
    """Strict codegen reports every tree whose text parses back as a
    different tree, or not at all, and prints the same text as plain
    codegen."""

    @pytest.mark.parametrize(
        "edit",
        [
            _nonblocking_loop_init, _delayed_loop_step, _else_binds_inward,
            _literal_target, _select_of_unary, _selected_delay,
            _empty_concat, _missing_statement, _empty_senslist,
        ],
    )
    def test_inexact_shape_is_reported(self, edit):
        tree = parse(LOOP)
        edit(tree)
        with pytest.raises(InexactCodegen):
            generate(tree, strict=True)
        text = generate(tree)
        try:
            reparsed = parse(text)
        except Exception:
            return
        assert structural_diff(reparsed, tree) is not None

    @pytest.mark.parametrize("project", all_projects(), ids=lambda p: p.name)
    def test_parsed_designs_are_exact(self, project):
        for source in (project.design_text, project.testbench_text):
            tree = parse(source)
            text = generate(tree, strict=True)
            assert text == generate(tree)
            assert structural_diff(parse(text), tree) is None
