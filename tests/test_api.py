"""repro.api facade tests (scenario resolution, localize, simulate,
build_problem).  The heavyweight repair path is covered by
test_public_api.py and tests/obs/."""

import importlib
import json
from collections import Counter

import pytest

from repro.api import (
    build_problem,
    localize,
    materialize_request,
    repair_scenario,
    run_request,
    simulate,
)
from repro.core.repair import RepairProblem
from repro.core.serialize import outcome_to_json
from repro.service import RepairRequest

DESIGN = """
module counter(clk, rst, out);
  input clk, rst;
  output [1:0] out;
  reg [1:0] out;
  always @(posedge clk) begin
    if (rst) out <= 0;
    else out <= out + 1;
  end
endmodule
"""

TESTBENCH = """
module tb;
  reg clk, rst;
  wire [1:0] out;
  counter dut(.clk(clk), .rst(rst), .out(out));
  always #5 clk = !clk;
  initial begin
    clk = 0; rst = 1;
    @(negedge clk);
    rst = 0;
    repeat (6) begin @(negedge clk); end
    $finish;
  end
endmodule
"""


class TestSimulate:
    def test_design_alone(self):
        result = simulate("module t; initial $finish; endmodule")
        assert result.finished
        assert result.events_executed >= 1

    def test_with_testbench_and_record(self):
        result = simulate(DESIGN, TESTBENCH, record=True)
        assert result.finished
        assert result.trace, "record=True should capture a trace"

    def test_without_record_no_trace(self):
        result = simulate(DESIGN, TESTBENCH)
        assert result.finished
        assert not result.trace


class TestLocalize:
    def test_scenario_id(self):
        loc = localize("dec_numeric")
        assert len(loc) > 0
        assert loc.mismatch

    def test_matching_design_yields_empty_localization(self):
        from repro.core.oracle import ensure_instrumented, generate_oracle
        from repro.hdl import parse

        golden = parse(DESIGN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        oracle = generate_oracle(golden, bench)
        problem = RepairProblem(golden, bench, oracle)
        assert len(localize(problem)) == 0

    def test_matches_the_engines_first_fault_set(self):
        from repro.benchsuite import load_scenario
        from repro.core.backend import SerialBackend
        from repro.core.config import RepairConfig
        from repro.core.patch import Patch
        from repro.core.repair import CirFixEngine

        scenario = load_scenario("dec_numeric")
        problem = scenario.problem()
        config = scenario.suggested_config(RepairConfig())
        with SerialBackend(problem, config) as backend:
            engine = CirFixEngine(problem, config, 0, backend=backend)
            original = Patch.empty()
            faults = engine.fault_localization(original, engine.variant_tree(original))
        assert localize("dec_numeric").nodes == faults

    def test_unscorable_design_rejected(self):
        from repro.core.oracle import ensure_instrumented, generate_oracle
        from repro.hdl import parse

        golden = parse(DESIGN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        oracle = generate_oracle(golden, bench)
        # Without its ``out`` port the design cannot bind the testbench.
        portless = parse(
            DESIGN.replace("counter(clk, rst, out)", "counter(clk, rst)")
            .replace("output [1:0] out;\n", "")
        )
        with pytest.raises(ValueError, match="cannot be scored"):
            localize(RepairProblem(portless, bench, oracle))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            localize("not_a_scenario")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="scenario"):
            repair_scenario(42)


class TestScenarioProblems:
    def test_jobs_on_one_id_share_one_problem(self, monkeypatch):
        """The second job on a benchmark id reuses the first one's
        problem: the same testbench tree and the same outcome.  Compiled
        testbench templates last one run, so the second job's backend
        compiles each testbench process once, not once per candidate."""
        compiler = importlib.import_module("repro.sim.compile")
        compiled: list = []
        for name in ("_compile_always", "_compile_initial"):
            real = getattr(compiler, name)

            def recording(item, scope, real=real):
                compiled.append(item)
                return real(item, scope)

            monkeypatch.setattr(compiler, name, recording)
        request = RepairRequest(
            scenario="counter_reset",
            seeds=(0,),
            config={
                "population_size": 8, "max_generations": 1,
                "max_fitness_evals": 12, "minimize_budget": 4,
                "max_wall_seconds": 1e6,
            },
        )

        def report(outcome):
            payload = json.loads(outcome_to_json(outcome, "counter_reset"))
            payload.pop("elapsed_seconds")
            return payload

        first_problem = materialize_request(request)[0]
        first = report(run_request(request))
        compiled.clear()
        second_problem = materialize_request(request)[0]
        second = report(run_request(request))
        assert second_problem is first_problem
        testbench_items = {id(node) for node in first_problem.testbench.walk()}
        assert compiled, "the second job compiled no candidate at all"
        testbench = Counter(id(item) for item in compiled if id(item) in testbench_items)
        assert testbench and set(testbench.values()) == {1}
        assert second == first


class TestBuildProblem:
    def test_from_golden(self, tmp_path):
        faulty = DESIGN.replace("out <= out + 1", "out <= out + 2")
        (tmp_path / "faulty.v").write_text(faulty)
        (tmp_path / "tb.v").write_text(TESTBENCH)
        (tmp_path / "golden.v").write_text(DESIGN)
        problem = build_problem(
            tmp_path / "faulty.v", tmp_path / "tb.v", golden=tmp_path / "golden.v"
        )
        assert problem.name == "faulty"
        assert problem.oracle.rows

    def test_requires_an_oracle_source(self, tmp_path):
        (tmp_path / "faulty.v").write_text(DESIGN)
        (tmp_path / "tb.v").write_text(TESTBENCH)
        with pytest.raises(ValueError, match="golden design or an oracle CSV"):
            build_problem(tmp_path / "faulty.v", tmp_path / "tb.v")
