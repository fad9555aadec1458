"""Candidate lint gate tests (``RepairConfig.lint_gate``).

Pinned properties, matching the gate contract in ``docs/lint.md``:

1. gate off (the default) is bit-identical to the pre-gate engine —
   zero pruning, no ``candidate_pruned`` events, and the committed
   telemetry golden (``tests/obs/golden``) still matches;
2. gate on is deterministic and backend-independent: serial and
   process-pool runs produce identical outcomes and identical event
   sequences, because pruning happens engine-side before chunking;
3. pruned candidates are charged zero ``eval_sims`` and cache as
   ordinary evaluations (re-submitting one is a cache hit);
4. telemetry agrees with the engine: ``MetricsObserver.candidates_pruned``
   == ``RepairOutcome.pruned`` == the ``TrialCompleted`` field.
"""

import json

import pytest

from repro.benchsuite import load_scenario
from repro.core import TEST_CONFIG, CirFixEngine, RepairProblem
from repro.core.backend import make_backend
from repro.core.config import ConfigError, RepairConfig
from repro.core.oracle import ensure_instrumented, generate_oracle
from repro.core.patch import Edit, Patch
from repro.core.serialize import outcome_to_json
from repro.hdl import ast, parse
from repro.obs.metrics import MetricsObserver
from repro.obs.observer import RecordingObserver

# ----------------------------------------------------------------------
# Unit level: a clean comb mux whose else-branch can be deleted to
# manufacture a latch (L004) on demand.
# ----------------------------------------------------------------------

GOLDEN_MUX = """
module mux(a, b, s, y);
  input a, b, s;
  output y;
  reg y;
  always @(*) begin
    if (s) y = a;
    else y = b;
  end
endmodule
"""

FAULTY_MUX = GOLDEN_MUX.replace("if (s) y = a;", "if (s) y = b;")

MUX_TB = """
module tb;
  reg clk, a, b, s;
  wire y;
  mux dut(.a(a), .b(b), .s(s), .y(y));
  always #5 clk = !clk;
  initial begin
    clk = 0; a = 0; b = 1; s = 0;
    @(negedge clk) s = 1;
    @(negedge clk) begin a = 1; b = 0; end
    @(negedge clk) s = 0;
    #5 $finish;
  end
endmodule
"""


@pytest.fixture(scope="module")
def mux_problem():
    golden = parse(GOLDEN_MUX)
    bench = ensure_instrumented(parse(MUX_TB), golden)
    oracle = generate_oracle(golden, bench)
    return RepairProblem(parse(FAULTY_MUX), bench, oracle, "mux_latch")


def _latch_patch(problem):
    """Delete the else-branch assignment: infers a latch on ``y``."""
    else_assign = [
        n for n in problem.design.walk() if isinstance(n, ast.BlockingAssign)
    ][-1]
    return Patch([Edit("delete", else_assign.node_id)])


def _gated(problem, **overrides):
    return CirFixEngine(problem, TEST_CONFIG.scaled(lint_gate=True, **overrides))


class TestGateUnit:
    def test_violating_candidate_pruned_without_simulation(self, mux_problem):
        engine = _gated(mux_problem)
        evaluation = engine.evaluate(_latch_patch(mux_problem))
        assert not evaluation.compiled
        assert evaluation.fitness == 0.0
        assert engine.eval_sims == 0
        assert engine.simulations == 0
        assert engine.candidates_pruned == 1
        assert engine.pruned_by_rule == {"L004": 1}

    def test_pruned_candidate_is_cached(self, mux_problem):
        engine = _gated(mux_problem)
        patch = _latch_patch(mux_problem)
        engine.evaluate(patch)
        engine.evaluate(patch)
        assert engine.candidates_pruned == 1
        assert engine.fitness_evals == 2  # both calls count as evals

    def test_clean_candidate_passes_the_gate(self, mux_problem):
        engine = _gated(mux_problem)
        evaluation = engine.evaluate(Patch.empty())
        assert evaluation.compiled
        assert engine.candidates_pruned == 0
        assert engine.eval_sims == 1

    def test_gate_respects_rule_selection(self, mux_problem):
        # With only multi-driver gated, the latch candidate simulates.
        engine = _gated(mux_problem, lint_gate_rules="multi-driver")
        evaluation = engine.evaluate(_latch_patch(mux_problem))
        assert evaluation.compiled
        assert engine.candidates_pruned == 0

    def test_gate_off_simulates_the_same_candidate(self, mux_problem):
        engine = CirFixEngine(mux_problem, TEST_CONFIG)
        evaluation = engine.evaluate(_latch_patch(mux_problem))
        assert evaluation.compiled
        assert engine.candidates_pruned == 0
        assert engine.eval_sims == 1

    def test_bad_gate_rules_rejected_at_validation(self):
        with pytest.raises(ConfigError, match="bad lint_gate_rules"):
            RepairConfig(lint_gate_rules="L999").validate()


# ----------------------------------------------------------------------
# End to end on a real scenario, both backends.
# ----------------------------------------------------------------------

SCENARIO_ID = "dec_numeric"
SEED = 0


def _run(gate, workers=1, backend="serial", observers=None):
    scenario = load_scenario(SCENARIO_ID)
    config = scenario.suggested_config(
        RepairConfig(
            population_size=16,
            max_generations=2,
            max_wall_seconds=120.0,
            max_fitness_evals=150,
            minimize_budget=32,
            eval_chunk_size=8,
            workers=workers,
            backend=backend,
            lint_gate=gate,
        )
    )
    problem = scenario.problem()
    eval_backend = make_backend(problem, config)
    try:
        return CirFixEngine(
            problem, config, SEED, backend=eval_backend, observers=observers
        ).run()
    finally:
        eval_backend.close()


def _outcome_key(outcome):
    """Every outcome field except wall-clock, via the JSON projection."""
    data = json.loads(outcome_to_json(outcome))
    data.pop("elapsed_seconds", None)
    return data


class TestGateOffIsBitIdentical:
    def test_no_pruning_and_no_prune_events(self):
        recording = RecordingObserver()
        outcome = _run(gate=False, observers=[recording])
        assert outcome.pruned == 0
        assert "candidate_pruned" not in recording.types()

    def test_serial_and_process_agree(self):
        serial = _run(gate=False)
        pool = _run(gate=False, workers=2, backend="process")
        assert _outcome_key(serial) == _outcome_key(pool)


class TestGateOnDeterminism:
    def test_backend_independent_outcome_and_events(self):
        serial_rec, pool_rec = RecordingObserver(), RecordingObserver()
        serial = _run(gate=True, observers=[serial_rec])
        pool = _run(gate=True, workers=2, backend="process", observers=[pool_rec])
        assert serial.pruned > 0, "scenario stopped exercising the gate"
        assert _outcome_key(serial) == _outcome_key(pool)
        assert serial_rec.types() == pool_rec.types()
        # Prune events and their payloads line up exactly across backends.
        serial_prunes = [
            (e.new_violations, e.rules)
            for e in serial_rec.events
            if e.type == "candidate_pruned"
        ]
        pool_prunes = [
            (e.new_violations, e.rules)
            for e in pool_rec.events
            if e.type == "candidate_pruned"
        ]
        assert serial_prunes == pool_prunes
        assert len(serial_prunes) == serial.pruned

    def test_run_to_run_stable(self):
        assert _outcome_key(_run(gate=True)) == _outcome_key(_run(gate=True))

    def test_pruning_reduces_eval_sims(self):
        off = _run(gate=False)
        on = _run(gate=True)
        assert on.pruned > 0
        assert on.eval_sims < off.eval_sims


class TestGateTelemetryMatchesEngine:
    @pytest.mark.parametrize(
        "workers,backend", [(1, "serial"), (2, "process")],
        ids=["serial", "process"],
    )
    def test_pruned_counters_agree(self, workers, backend):
        metrics, recording = MetricsObserver(), RecordingObserver()
        outcome = _run(
            gate=True, workers=workers, backend=backend,
            observers=[metrics, recording],
        )
        assert metrics.candidates_pruned == outcome.pruned > 0
        trial = [e for e in recording.events if e.type == "trial_completed"]
        assert len(trial) == 1 and trial[0].pruned == outcome.pruned
        assert sum(metrics.pruned_by_rule.values()) >= metrics.candidates_pruned
        assert set(metrics.pruned_by_rule) <= {"L001", "L004", "L005"}
        # Unique simulated evaluations exclude pruned candidates.
        assert metrics.candidates == outcome.eval_sims
        summary = metrics.summary()["candidates"]
        assert summary["pruned"] == outcome.pruned
        assert summary["pruned_by_rule"] == dict(sorted(metrics.pruned_by_rule.items()))
