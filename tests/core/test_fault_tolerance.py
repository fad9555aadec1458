"""End-to-end fault-tolerance acceptance tests (ISSUE 5).

A full repair run with deliberately planted poison mutants — one that
hangs, one that hard-exits its worker, one that balloons memory — must
terminate, quarantine exactly the planted candidates as deterministic
:class:`~repro.core.backend.EvalFailure` results with the right kinds,
and still find the repair.  The telemetry layer must agree with the
engine's own counters at every level (outcome, metrics, events).
"""

import pytest

from repro.benchsuite import load_scenario
from repro.core import TEST_CONFIG, CirFixEngine, RepairProblem, repair
from repro.core.backend import EvalFailure, ProcessPoolBackend
from repro.core.minimize import minimize_patch
from repro.core.oracle import ensure_instrumented, generate_oracle
from repro.core.patch import Patch
from repro.fuzz.faults import plant_eval_chaos
from repro.hdl import parse
from repro.obs import MetricsObserver, RecordingObserver

from .test_minimize_integration import bloated_counter_patch

GOLDEN_FF = """
module tff(clk, rstn, t, q);
  input clk, rstn, t;
  output q;
  reg q;
  always @(posedge clk) begin
    if (!rstn) q <= 1'b0;
    else begin
      if (t) q <= !q;
      else q <= q;
    end
  end
endmodule
"""

FAULTY_FF = GOLDEN_FF.replace("if (t) q <= !q;", "if (!t) q <= !q;")

TESTBENCH = """
module tb;
  reg clk, rstn, t;
  wire q;
  tff dut(.clk(clk), .rstn(rstn), .t(t), .q(q));
  always #5 clk = !clk;
  initial begin
    clk = 0; rstn = 0; t = 0;
    @(negedge clk);
    rstn = 1; t = 1;
    repeat (4) begin @(negedge clk); end
    t = 0;
    repeat (3) begin @(negedge clk); end
    #5 $finish;
  end
endmodule
"""


@pytest.fixture(scope="module")
def problem():
    golden = parse(GOLDEN_FF)
    bench = ensure_instrumented(parse(TESTBENCH), golden)
    oracle = generate_oracle(golden, bench)
    return RepairProblem(parse(FAULTY_FF), bench, oracle, "ff_cond")


#: Short-but-roomy supervision budget: the deadline must outlast the
#: memory balloon's climb to its 128 MiB cap on slow hosts, while the
#: planted hang burns exactly one deadline.  Dispatch 0 is the unpatched
#: design, so the ordinals (1, 2, 3) poison the first three mutants,
#: early in the deterministic dispatch schedule; the winning repair for
#: this scenario appears much later (ordinal 18 of 19 under seed 0), so
#: poisoning them never quarantines the repair itself.
CHAOS_SPEC = "hang@1,exit@2,balloon@3"
CHAOS_CONFIG = TEST_CONFIG.scaled(
    max_generations=4,
    eval_deadline_seconds=8.0,
    eval_max_retries=0,
    worker_mem_mb=128,
)


def test_repair_survives_planted_poison_mutants(problem):
    metrics = MetricsObserver()
    recorder = RecordingObserver()
    with plant_eval_chaos(CHAOS_SPEC):
        with ProcessPoolBackend.for_problem(problem, CHAOS_CONFIG, workers=2) as pool:
            outcome = CirFixEngine(
                problem, CHAOS_CONFIG, seed=0,
                backend=pool, observers=[metrics, recorder],
            ).run()

    # The run terminated and still repaired the defect.
    assert outcome.plausible
    assert outcome.repaired_source is not None

    # Exactly the three planted candidates were quarantined, each under
    # its own failure kind.
    assert outcome.quarantined == 3
    engine_kinds = {"timeout": 1, "crash": 1, "oom": 1}
    assert metrics.candidates_quarantined == 3
    assert metrics.quarantined_by_kind == engine_kinds

    # Per-incident events came through with the right shapes.
    timed_out = [e for e in recorder.events if e.type == "candidate_timed_out"]
    crashed = [e for e in recorder.events if e.type == "worker_crashed"]
    assert len(timed_out) == 1
    assert timed_out[0].quarantined
    assert timed_out[0].deadline_seconds == CHAOS_CONFIG.eval_deadline_seconds
    assert sorted(e.kind for e in crashed) == ["crash", "oom"]
    assert all(e.quarantined for e in crashed)
    # eval_max_retries=0 means no requeues, so no chunk_retried events.
    assert not [e for e in recorder.events if e.type == "chunk_retried"]

    # The trial summary event mirrors the outcome's quarantine counter.
    (trial,) = [e for e in recorder.events if e.type == "trial_completed"]
    assert trial.quarantined == outcome.quarantined
    assert metrics.candidates == outcome.eval_sims


def test_requeued_chunk_emits_chunk_retried(problem):
    config = CHAOS_CONFIG.scaled(eval_max_retries=1)
    metrics = MetricsObserver()
    recorder = RecordingObserver()
    with plant_eval_chaos("exit@1:once"):
        with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
            outcome = CirFixEngine(
                problem, config, seed=0, backend=pool,
                observers=[metrics, recorder],
            ).run()

    # The :once fault killed one worker, the retry recovered the real
    # score: nothing was quarantined and the search is unharmed.
    assert outcome.plausible
    assert outcome.quarantined == 0
    assert metrics.candidates_quarantined == 0
    crashed = [e for e in recorder.events if e.type == "worker_crashed"]
    assert [e.quarantined for e in crashed] == [False]
    retried = [e for e in recorder.events if e.type == "chunk_retried"]
    assert len(retried) == 1
    assert retried[0].requeued == 1
    assert metrics.chunks_retried == 1
    assert metrics.candidates_requeued == 1
    assert metrics.worker_failures == {"crash": 1}


def test_chaos_run_matches_clean_run_outside_poisoned_slots(problem):
    """With retries covering every planted fault, the outcome is
    bit-identical to a clean run — recovery is invisible to the search."""
    config = CHAOS_CONFIG.scaled(eval_max_retries=1)
    with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
        clean = CirFixEngine(problem, config, seed=0, backend=pool).run()
    with plant_eval_chaos("exit@0:once,exit@3:once"):
        with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
            chaotic = CirFixEngine(problem, config, seed=0, backend=pool).run()
    assert chaotic.plausible == clean.plausible
    assert chaotic.fitness == clean.fitness
    assert chaotic.repaired_source == clean.repaired_source
    assert chaotic.best_fitness_history == clean.best_fitness_history
    assert chaotic.quarantined == clean.quarantined == 0


def test_multi_seed_repair_quarantines_a_planted_hang(problem):
    """A multi-seed ``repair()`` runs its trials on the supervised pool:
    the hang planted at dispatch ordinal 1 (seed 0's first mutant; 0 is
    the unpatched design) burns one deadline and is quarantined, and
    seed 0 still repairs."""
    config = CHAOS_CONFIG.scaled(workers=2, eval_deadline_seconds=2.0)
    with plant_eval_chaos("hang@1"):
        outcome = repair(problem, config, seeds=(0, 1))
    assert outcome.plausible
    assert outcome.seed == 0
    assert outcome.quarantined == 1


class TestSingleCandidatesAreSupervised:
    """The unpatched design and minimization subsets are scored on the
    pool like chunk members: a planted fault there is quarantined, not
    run in the engine process where no deadline could stop it."""

    @pytest.fixture(scope="class")
    def counter(self):
        scenario = load_scenario("counter_reset")
        config = scenario.suggested_config(TEST_CONFIG).scaled(
            eval_deadline_seconds=2.0, eval_max_retries=0
        )
        return scenario.problem(), config

    def test_minimization_subset_is_quarantined(self, counter):
        problem, config = counter
        bloated = bloated_counter_patch(problem.design)
        # Dispatch 0 is the bloated patch itself, so 1 is ddmin's first subset.
        with plant_eval_chaos("hang@1"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                engine = CirFixEngine(problem, config, backend=pool)
                assert engine.evaluate(bloated).is_plausible
                minimized = minimize_patch(
                    bloated, lambda p: engine.evaluate(p).is_plausible
                )
                assert engine.candidates_quarantined == 1
                assert engine.evaluate(minimized).is_plausible

    def test_unpatched_design_is_quarantined(self, counter):
        problem, config = counter
        recorder = RecordingObserver()
        with plant_eval_chaos("hang@0"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                engine = CirFixEngine(
                    problem, config, backend=pool, observers=[recorder]
                )
                result = engine.evaluate(Patch.empty())
        assert result.failure == EvalFailure("timeout", 1)
        assert result.fitness == 0.0
        assert engine.candidates_quarantined == 1
        # The incident is drained right after the single candidate; it was
        # no chunk, so nothing reports a chunk.
        assert recorder.types() == ["candidate_timed_out", "candidate_evaluated"]

    def test_single_candidate_requeue_emits_no_chunk_retried(self, counter):
        problem, config = counter
        recorder = RecordingObserver()
        config = config.scaled(eval_max_retries=1)
        with plant_eval_chaos("exit@0:once"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                engine = CirFixEngine(
                    problem, config, backend=pool, observers=[recorder]
                )
                result = engine.evaluate(Patch.empty())
        assert result.failure is None and result.compiled
        assert engine.candidates_quarantined == 0
        crashed = [e for e in recorder.events if e.type == "worker_crashed"]
        assert [(e.kind, e.quarantined) for e in crashed] == [("crash", False)]
        assert not [e for e in recorder.events if e.type == "chunk_retried"]
