"""Oracle generation tests (paper §4.1.2)."""

import pytest

from repro.core.oracle import (
    OracleError,
    combine_sources,
    degrade_oracle,
    ensure_instrumented,
    generate_oracle,
)
from repro.hdl import generate, parse
from repro.instrument.instrumenter import is_instrumented

GOLDEN = """
module inc(clk, v);
  input clk;
  output [3:0] v;
  reg [3:0] v;
  initial v = 0;
  always @(posedge clk) v <= v + 1;
endmodule
"""

TESTBENCH = """
module tb;
  reg clk;
  wire [3:0] v;
  inc dut(.clk(clk), .v(v));
  always #5 clk = !clk;
  initial begin clk = 0; #95 $finish; end
endmodule
"""


class TestEnsureInstrumented:
    def test_instruments_plain_testbench(self):
        golden = parse(GOLDEN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        assert any(is_instrumented(m) for m in bench.modules)

    def test_already_instrumented_untouched(self):
        golden = parse(GOLDEN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        again = ensure_instrumented(bench, golden)
        assert generate(again) == generate(bench)


class TestGenerateOracle:
    def test_oracle_rows_at_posedges(self):
        golden = parse(GOLDEN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        oracle = generate_oracle(golden, bench)
        assert oracle.times() == [5, 15, 25, 35, 45, 55, 65, 75, 85]
        assert oracle.variables() == ["v"]
        # Postponed sampling: value after the NBA update at each edge.
        assert oracle.get(5, "v").to_int() == 1

    def test_uninstrumented_bench_rejected(self):
        golden = parse(GOLDEN)
        with pytest.raises(OracleError):
            generate_oracle(golden, parse(TESTBENCH))

    def test_unfinished_simulation_rejected(self):
        golden = parse(GOLDEN)
        bench_text = TESTBENCH.replace("#95 $finish;", "#95;")
        bench = ensure_instrumented(parse(bench_text), golden)
        with pytest.raises(OracleError):
            generate_oracle(golden, bench, require_finish=True)

    def test_combine_sources_keeps_the_given_modules(self):
        design, bench = parse(GOLDEN), parse(TESTBENCH)
        combined = combine_sources(design, bench)
        given = design.modules + bench.modules
        assert list(map(id, combined.modules)) == list(map(id, given))


class TestDegrade:
    def test_degrade_halves(self):
        golden = parse(GOLDEN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        oracle = generate_oracle(golden, bench)
        half = degrade_oracle(oracle, 0.5)
        assert len(half) in (4, 5)
        assert set(half.times()) <= set(oracle.times())
