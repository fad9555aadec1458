"""The engine scores the tree it holds, and only when the tree is the
program its text is.

``EngineHarness._applied`` applies each patch once and generates its
text with strict codegen.  The serial backend then compiles the patched
tree instead of parsing the text again.  Some tree shapes print as text
that parses back as a different tree, or not at all
(``repro.hdl.codegen.generate``); codegen reports them, and those
candidates are scored from their text, as the pool scores every
candidate.  These tests check that contract on real trials, pin the
shapes the engines make, and check that the serial path parses no
candidate and localizes each parent once.
"""

import dataclasses

import pytest

from repro.benchsuite import PROJECT_NAMES, all_scenarios, load_scenario
from repro.core.backend import SerialBackend, evaluate_design_text
from repro.core.config import RepairConfig
from repro.core.harness import EngineHarness, run_trials
from repro.core.patch import Edit, Patch
from repro.core.repair import CirFixEngine
from repro.fuzz.oracles import check_candidate_roundtrip
from repro.hdl import InexactCodegen, ast, generate, parse
from repro.synth import SynthEngine, race_repair

from ..obs.test_engine_telemetry import _run as run_gp_trial

#: A small budget that still runs seedlings, evolved generations and
#: minimization.
SMALL = RepairConfig(
    population_size=16, max_generations=2, max_fitness_evals=40,
    minimize_budget=8, eval_chunk_size=8, max_wall_seconds=1e6,
)


@pytest.fixture
def applied(monkeypatch):
    """Every distinct candidate the harness applies and generates:
    ``(tree, text, exact)`` as ``EngineHarness._applied`` returns it."""
    seen: dict[int, tuple] = {}
    original = EngineHarness._applied

    def recording(self, patch):
        tree, text, exact = result = original(self, patch)
        if text is not None:
            seen.setdefault(id(tree), (tree, text, exact))
        return result

    monkeypatch.setattr(EngineHarness, "_applied", recording)
    return seen


def _violations(applied):
    return [
        violation.detail
        for tree, text, exact in applied.values()
        for violation in check_candidate_roundtrip(tree, text, exact)
    ]


def _first_scenario(project):
    return next(s for s in all_scenarios() if s.project.name == project)


class TestEngineCandidatesRoundTrip:
    @pytest.mark.parametrize("project", PROJECT_NAMES)
    def test_gp_and_synth(self, project, applied):
        scenario = _first_scenario(project)
        config = scenario.suggested_config(SMALL)
        for engine in (CirFixEngine, SynthEngine):
            run_trials(engine, scenario.problem(), config, (0,))
        assert len(applied) > 1
        assert _violations(applied) == []

    def test_race_on_minted_designs(self, applied):
        from repro.mint import GRADE_CONFIG, MintConfig, mint_scenarios

        report = mint_scenarios(MintConfig(seed=0, count=8))
        assert report.admitted
        config = GRADE_CONFIG.scaled(
            population_size=10, max_generations=2, max_fitness_evals=20,
            minimize_budget=8, max_wall_seconds=1e6,
        )
        for item in report.admitted:
            race_repair(item.to_scenario().problem(), config, (0,))
        assert len(applied) > len(report.admitted)
        assert _violations(applied) == []


# ----------------------------------------------------------------------
# Shapes codegen reports, as the engines make them
# ----------------------------------------------------------------------

LOOP = """
module shifter(clk, d, q);
  input clk;
  input d;
  output [3:0] q;
  reg [3:0] q;
  integer i;
  always @(posedge clk)
  begin
    for (i = 3; i > 0; i = i - 1)
      q[i] <= q[i - 1];
    q[0] <= d;
  end
endmodule
"""

BRANCHES = """
module picker(clk, a, b, q);
  input clk;
  input a;
  input b;
  output [1:0] q;
  reg [1:0] q;
  always @(posedge clk)
  begin
    if (a)
    begin
      if (b)
        q <= 2'b01;
    end
    else
      q <= 2'b10;
  end
endmodule
"""

BENCH = """
module tb;
  reg clk, a, b;
  wire [{msb}:0] q;
  {dut} dut({ports});
  always #5 clk = !clk;
  initial begin
    clk = 0; a = 0; b = 0;
    @(negedge clk); a = 1;
    @(negedge clk); b = 1;
    @(negedge clk); a = 0;
    @(negedge clk); b = 0;
    #5 $finish;
  end
endmodule
"""


def _problem(design_text, dut, ports, msb):
    from repro.core.harness import RepairProblem
    from repro.core.oracle import ensure_instrumented, generate_oracle

    design = parse(design_text)
    bench = parse(BENCH.format(msb=msb, dut=dut, ports=ports))
    bench = ensure_instrumented(bench, design)
    return RepairProblem(design, bench, generate_oracle(design, bench), dut)


def _loop_init_nonblocking():
    """``blocking_to_nonblocking`` on a ``for`` loop's init."""
    problem = _problem(LOOP, "shifter", "clk, a, q", 3)
    loop = next(n for n in problem.design.walk() if isinstance(n, ast.For))
    edit = Edit("template", loop.init.node_id, template="blocking_to_nonblocking")
    return problem, Patch([edit])


def _dangling_else():
    """An ``if`` with an ``else`` whose then-branch becomes an ``if``
    without one (the begin-end around it replaced by the inner ``if``)."""
    problem = _problem(BRANCHES, "picker", "clk, a, b, q", 1)
    outer = next(n for n in problem.design.walk() if isinstance(n, ast.If))
    block = outer.then_stmt
    edit = Edit("replace", block.node_id, payload=block.stmts[0].clone())
    return problem, Patch([edit])


def _literal_target():
    """A GP ``replace`` of an assignment target's name by a literal: the
    text ``0[i] <= ...`` does not parse."""
    problem = _problem(LOOP, "shifter", "clk, a, q", 3)
    select = next(
        n for n in problem.design.walk()
        if isinstance(n, ast.NonBlockingAssign) and isinstance(n.lhs, ast.Index)
    ).lhs
    edit = Edit("replace", select.target.node_id, payload=ast.Number.from_int(0))
    return problem, Patch([edit])


def _untimed(result):
    return dataclasses.replace(
        result, eval_seconds=0.0, parse_seconds=0.0, sim_seconds=0.0
    )


class TestInexactShapes:
    @pytest.mark.parametrize(
        "case", [_loop_init_nonblocking, _dangling_else, _literal_target]
    )
    def test_scored_from_todays_text(self, case, monkeypatch):
        problem, patch = case()
        engine = CirFixEngine(problem, SMALL, seed=0)
        tree, text, exact = engine._applied(patch)
        assert not exact
        with pytest.raises(InexactCodegen):
            generate(tree, strict=True)
        assert text == generate(tree)
        assert check_candidate_roundtrip(tree, text, exact) == []

        handed: list = []
        original = SerialBackend.evaluate_batch

        def spy(backend, candidates):
            handed.extend(candidates)
            return original(backend, candidates)

        monkeypatch.setattr(SerialBackend, "evaluate_batch", spy)
        result = engine.evaluate(patch)
        assert handed == [text], "an inexact tree reached the backend"
        expected = evaluate_design_text(
            text, problem.testbench, problem.oracle, engine.config
        )
        assert _untimed(result) == _untimed(expected)


# ----------------------------------------------------------------------
# The serial path parses no candidate; each parent localizes once
# ----------------------------------------------------------------------


class ParseSpy:
    """Counts calls to the backend's ``parse`` (the candidate frontend)."""

    def __init__(self, monkeypatch):
        import repro.core.backend as backend_mod

        self.calls = 0
        original = backend_mod.parse

        def parse_spy(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(backend_mod, "parse", parse_spy)


class TestSerialPathParsesNothing:
    def test_counter_reset(self, monkeypatch):
        spy = ParseSpy(monkeypatch)
        scenario = load_scenario("counter_reset")
        config = scenario.suggested_config(
            SMALL.scaled(max_fitness_evals=60, minimize_budget=16)
        )
        (outcome,) = run_trials(CirFixEngine, scenario.problem(), config, (0,))
        assert spy.calls == 0
        # The outcome the trial had when every candidate was re-parsed.
        assert (
            outcome.plausible, outcome.fitness, outcome.generations,
            outcome.fitness_evals, outcome.eval_sims, outcome.patch.describe(),
        ) == (False, 0.7571428571428571, 2, 74, 37, "insert_after@24")


class TestOneLocalizationPerParent:
    def test_gp_trial(self, monkeypatch):
        import repro.core.harness as harness_mod

        requested: list = []  # the patch of each fault_localization call
        localized: list = []  # the patch of each localize_faults call
        original_localize = harness_mod.localize_faults
        original_request = EngineHarness.fault_localization

        def localize_spy(*args, **kwargs):
            localized.append(requested[-1])
            return original_localize(*args, **kwargs)

        def request_spy(self, patch, variant):
            requested.append(patch)
            return original_request(self, patch, variant)

        monkeypatch.setattr(harness_mod, "localize_faults", localize_spy)
        monkeypatch.setattr(EngineHarness, "fault_localization", request_spy)
        run_gp_trial()
        # The lists keep every patch alive, so distinct ids are distinct
        # patches.
        assert len({id(patch) for patch in localized}) == len(localized) > 0
        assert len(requested) > len(localized)
