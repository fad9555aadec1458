"""Evaluation-backend tests: the shared testbench, serial/pool batch parity,
supervised fault recovery, and cross-backend determinism of whole repair
runs.

The parallel backend must be an implementation detail: same scenario, same
seed, same outcome — whether candidates are scored in-process or by a pool
of worker processes.  And under deliberately planted faults (hangs, hard
exits, memory balloons — the chaos plan), the pool must quarantine exactly
the poisoned candidates and keep going.
"""

import logging
import re

import pytest

from repro.benchsuite import load_scenario
from repro.core import TEST_CONFIG, CirFixEngine, RepairProblem
from repro.core.backend import (
    EvalFailure,
    ProcessPoolBackend,
    SerialBackend,
    evaluate_design_text,
    make_backend,
    parse_chaos_spec,
)
from repro.core.oracle import ensure_instrumented, generate_oracle
from repro.core.patch import Patch
from repro.core.repair import repair
from repro.fuzz.faults import plant_eval_chaos
from repro.hdl import generate, parse
from repro.obs import RecordingObserver
from repro.synth import race_repair, synth_repair

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

BROKEN_TEXT = "module tff(clk); input clk; always @(posedge clk) begin\n"


@pytest.fixture(scope="module")
def problem():
    golden = parse(GOLDEN_FF)
    bench = ensure_instrumented(parse(TESTBENCH), golden)
    oracle = generate_oracle(golden, bench)
    return RepairProblem(parse(FAULTY_FF), bench, oracle, "ff_cond")


class TestSharedTestbench:
    def test_scoring_leaves_the_testbench_untouched(self, problem):
        """Candidates share the testbench tree uncloned, so scoring must
        leave its text and node ids exactly as they were."""
        testbench = problem.testbench
        before = generate(testbench), [n.node_id for n in testbench.walk()]
        for text in (FAULTY_FF, GOLDEN_FF, BROKEN_TEXT):
            evaluate_design_text(text, testbench, problem.oracle, TEST_CONFIG)
        assert (generate(testbench), [n.node_id for n in testbench.walk()]) == before


class TestSharedDesign:
    def test_trials_leave_the_design_untouched(self):
        """Patched variants share subtrees with the design (``Patch.apply``
        copies only the edited paths), so no engine's trial may leave a
        mark on it: same text, same node ids."""
        problem = load_scenario("ff_cond").problem()
        design = problem.design
        before = generate(design), [n.node_id for n in design.walk()]
        for runner in (repair, synth_repair, race_repair):
            runner(problem, TEST_CONFIG, (0,))
            after = generate(design), [n.node_id for n in design.walk()]
            assert after == before, runner.__name__


class TestBatchParity:
    def test_serial_and_pool_agree(self, problem):
        texts = [generate(problem.design), GOLDEN_FF, BROKEN_TEXT, FAULTY_FF]
        serial = SerialBackend.for_problem(problem, TEST_CONFIG)
        pool = ProcessPoolBackend.for_problem(problem, TEST_CONFIG, workers=2)
        try:
            serial_results = serial.evaluate_batch(texts)
            pool_results = pool.evaluate_batch(texts)
        finally:
            serial.close()
            pool.close()
        assert len(serial_results) == len(pool_results) == len(texts)
        for s, p in zip(serial_results, pool_results):
            assert s.compiled == p.compiled
            assert s.fitness == p.fitness
            assert s.summary == p.summary

    def test_batch_flags_uncompilable(self, problem):
        backend = SerialBackend.for_problem(problem, TEST_CONFIG)
        (result,) = backend.evaluate_batch([BROKEN_TEXT])
        assert not result.compiled
        assert result.fitness == 0.0

    def test_make_backend_serial_for_one_worker(self, problem):
        backend = make_backend(problem, TEST_CONFIG)
        try:
            assert isinstance(backend, SerialBackend)
        finally:
            backend.close()
        pool = make_backend(problem, TEST_CONFIG.scaled(workers=2))
        try:
            assert isinstance(pool, ProcessPoolBackend)
        finally:
            pool.close()

    def test_make_backend_unknown_name_lists_valid_backends(self, problem):
        with pytest.raises(ValueError) as excinfo:
            make_backend(problem, TEST_CONFIG.scaled(backend="gpu"))
        message = str(excinfo.value)
        assert "'gpu'" in message
        for name in ("auto", "serial", "process"):
            assert name in message

    def test_repair_unknown_backend_lists_valid_backends(self, problem):
        # Every runner fails while building its backend, before any trial.
        for runner in (repair, synth_repair, race_repair):
            recorder = RecordingObserver()
            with pytest.raises(ValueError, match="valid backends: auto, serial, process"):
                runner(
                    problem, TEST_CONFIG.scaled(backend="gpu"), (0, 1),
                    observers=[recorder],
                )
            assert recorder.events == [], runner.__name__


#: Supervision-friendly config: short deadline, capped worker memory.
SUPERVISED = TEST_CONFIG.scaled(
    eval_deadline_seconds=5.0, eval_max_retries=0, worker_mem_mb=512
)


class TestChaosSpec:
    def test_parse_spec(self):
        assert parse_chaos_spec("hang@3, exit@7:once") == {
            3: ("hang", False),
            7: ("exit", True),
        }

    def test_parse_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            parse_chaos_spec("segfault@1")

    def test_parse_spec_rejects_missing_ordinal(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            parse_chaos_spec("hang")

    @pytest.mark.parametrize(
        "entry",
        [
            "hang@",  # empty ordinal
            "exit@5:twice",  # unknown suffix (only :once is valid)
            "hang@1_0",  # int() would silently read 10
            "hang@-1",  # negative ordinals are not dispatch positions
            "hang@ 3",  # int() would silently strip the space
            "exit@+2",  # explicit sign is not a decimal digit
            "balloon@2.0",  # not an integer
        ],
    )
    def test_parse_spec_rejects_malformed_ordinal(self, entry):
        """Malformed ordinals raise ValueError naming the offending entry."""
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            parse_chaos_spec(f"hang@1,{entry}")

    def test_parse_spec_accepts_plain_decimal_ordinals_only(self):
        assert parse_chaos_spec("balloon@10") == {10: ("balloon", False)}

    def test_plant_eval_chaos_rejects_malformed_spec(self):
        """The context manager validates eagerly, before planting anything."""
        with pytest.raises(ValueError, match=re.escape(repr("hang@"))):
            with plant_eval_chaos("hang@"):
                pass  # pragma: no cover - must not be reached
        with pytest.raises(ValueError, match=re.escape(repr("exit@5:twice"))):
            with plant_eval_chaos("exit@5:twice"):
                pass  # pragma: no cover - must not be reached

    def test_env_spec_malformed_is_ignored(self, problem, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_EVAL_CHAOS", "not a spec")
        with caplog.at_level(logging.WARNING, logger="repro.repair"):
            with ProcessPoolBackend.for_problem(problem, SUPERVISED, workers=1) as pool:
                assert pool._chaos_plan == {}
        assert any("REPRO_EVAL_CHAOS" in r.message for r in caplog.records)

    def test_env_spec_plants_faults(self, problem, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_CHAOS", "exit@0")
        with ProcessPoolBackend.for_problem(problem, SUPERVISED, workers=1) as pool:
            (result,) = pool.evaluate_batch([GOLDEN_FF])
        assert result.failure == EvalFailure("crash", 1)


class TestSupervisedPool:
    def test_hang_quarantined_as_timeout(self, problem):
        config = SUPERVISED.scaled(eval_deadline_seconds=1.0)
        with plant_eval_chaos("hang@0"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                results = pool.evaluate_batch([BROKEN_TEXT, GOLDEN_FF, FAULTY_FF])
        assert results[0].failure == EvalFailure("timeout", 1)
        assert results[0].fitness == 0.0 and not results[0].compiled
        # The rest of the batch is unaffected by the poisoned slot.
        assert results[1].compiled and results[1].failure is None
        assert results[2].compiled and results[2].failure is None

    def test_hard_exit_retried_then_quarantined(self, problem):
        config = SUPERVISED.scaled(eval_max_retries=1)
        with plant_eval_chaos("exit@1"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                results = pool.evaluate_batch([GOLDEN_FF, FAULTY_FF])
                incidents = pool.take_incidents()
        assert results[0].failure is None
        assert results[1].failure == EvalFailure("crash", 2)
        kinds = [(i.kind, i.quarantined) for i in incidents]
        assert kinds == [("crash", False), ("crash", True)]
        assert incidents[0].exitcode == 43  # the planted os._exit(43)

    def test_balloon_quarantined_as_oom(self, problem):
        # A small RLIMIT_AS cap so the balloon trips it quickly, and a
        # roomy deadline so slow hosts classify this as oom, not timeout.
        config = SUPERVISED.scaled(eval_deadline_seconds=60.0, worker_mem_mb=192)
        with plant_eval_chaos("balloon@0"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                results = pool.evaluate_batch([GOLDEN_FF, FAULTY_FF])
        assert results[0].failure == EvalFailure("oom", 1)
        assert results[1].failure is None and results[1].compiled

    def test_once_fault_recovers_on_retry(self, problem):
        config = SUPERVISED.scaled(eval_max_retries=1)
        with SerialBackend.for_problem(problem, config) as serial:
            (expected,) = serial.evaluate_batch([GOLDEN_FF])
        with plant_eval_chaos("exit@0:once"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                (result,) = pool.evaluate_batch([GOLDEN_FF])
                incidents = pool.take_incidents()
        # First attempt died, the requeued retry produced the real score.
        assert result.failure is None
        assert result.fitness == expected.fitness
        assert result.summary == expected.summary
        assert [(i.kind, i.quarantined) for i in incidents] == [("crash", False)]

    def test_pool_keeps_working_after_respawn(self, problem):
        with plant_eval_chaos("exit@0"):
            with ProcessPoolBackend.for_problem(problem, SUPERVISED, workers=2) as pool:
                first = pool.evaluate_batch([GOLDEN_FF, FAULTY_FF])
                assert first[0].failure is not None
                # The respawned worker serves later batches normally.
                second = pool.evaluate_batch([GOLDEN_FF, BROKEN_TEXT, FAULTY_FF])
        assert [r.failure for r in second] == [None, None, None]
        assert second[0].compiled and not second[1].compiled

    def test_take_incidents_drains(self, problem):
        with plant_eval_chaos("exit@0"):
            with ProcessPoolBackend.for_problem(problem, SUPERVISED, workers=2) as pool:
                pool.evaluate_batch([GOLDEN_FF])
                assert len(pool.take_incidents()) == 1
                assert pool.take_incidents() == []

    def test_no_chaos_no_incidents_bitwise_parity(self, problem):
        texts = [generate(problem.design), GOLDEN_FF, BROKEN_TEXT, FAULTY_FF]
        with SerialBackend.for_problem(problem, SUPERVISED) as serial:
            expected = serial.evaluate_batch(texts)
        with ProcessPoolBackend.for_problem(problem, SUPERVISED, workers=2) as pool:
            results = pool.evaluate_batch(texts)
            assert pool.take_incidents() == []
        for s, p in zip(expected, results):
            assert (s.fitness, s.compiled, s.summary, s.breakdown) == (
                p.fitness, p.compiled, p.summary, p.breakdown
            )
            assert p.failure is None

    def test_empty_batch(self, problem):
        with ProcessPoolBackend.for_problem(problem, SUPERVISED, workers=2) as pool:
            assert pool.evaluate_batch([]) == []


class TestBackendLifecycle:
    def test_serial_context_manager(self, problem):
        with SerialBackend.for_problem(problem, TEST_CONFIG) as backend:
            (result,) = backend.evaluate_batch([GOLDEN_FF])
        assert result.compiled
        assert backend.take_incidents() == []

    def test_pool_context_manager_reaps_workers(self, problem):
        with ProcessPoolBackend.for_problem(problem, TEST_CONFIG, workers=2) as pool:
            processes = [worker.process for worker in pool._workers]
            assert pool.evaluate_batch([GOLDEN_FF])[0].compiled
        for process in processes:
            assert not process.is_alive()

    def test_pool_close_idempotent_and_use_after_close(self, problem):
        pool = ProcessPoolBackend.for_problem(problem, TEST_CONFIG, workers=1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="after close"):
            pool.evaluate_batch([GOLDEN_FF])


class TestNeverRaises:
    def test_fitness_crash_scores_zero(self, problem, monkeypatch):
        import repro.core.backend as backend_mod

        def boom(trace, oracle, phi):
            raise RuntimeError("fitness scoring blew up")

        monkeypatch.setattr(backend_mod, "evaluate_fitness", boom)
        result = evaluate_design_text(
            GOLDEN_FF, problem.testbench, problem.oracle, TEST_CONFIG
        )
        assert result.compiled  # the simulation itself succeeded
        assert result.fitness == 0.0
        assert result.breakdown is None and result.summary is None
        assert result.sim_steps > 0  # sim counters survive the guard

    def test_trace_decode_crash_scores_zero(self, problem, monkeypatch):
        import repro.core.backend as backend_mod

        def boom(records):
            raise ValueError("degenerate recorded value")

        monkeypatch.setattr(backend_mod.SimulationTrace, "from_records", boom)
        result = evaluate_design_text(
            GOLDEN_FF, problem.testbench, problem.oracle, TEST_CONFIG
        )
        assert result.compiled and result.fitness == 0.0

    def test_parse_memory_error_scores_zero(self, problem, monkeypatch):
        import repro.core.backend as backend_mod

        def boom(text):
            raise MemoryError

        monkeypatch.setattr(backend_mod, "parse", boom)
        result = evaluate_design_text(
            GOLDEN_FF, problem.testbench, problem.oracle, TEST_CONFIG
        )
        assert not result.compiled
        assert result.fitness == 0.0


class TestMakeBackendDegraded:
    def test_daemonic_process_falls_back_to_serial(self, problem, monkeypatch, caplog):
        import repro.core.backend as backend_mod

        class FakeDaemon:
            daemon = True

        monkeypatch.setattr(
            backend_mod.multiprocessing, "current_process", lambda: FakeDaemon()
        )
        with caplog.at_level(logging.WARNING, logger="repro.repair"):
            with make_backend(problem, TEST_CONFIG.scaled(workers=2)) as backend:
                assert isinstance(backend, SerialBackend)
        assert any("worker process" in r.message for r in caplog.records)

    def test_pool_creation_failure_falls_back_to_serial(
        self, problem, monkeypatch, caplog
    ):
        import repro.core.backend as backend_mod

        def boom(problem, config, workers=None):
            raise OSError("cannot fork")

        monkeypatch.setattr(
            backend_mod.ProcessPoolBackend, "for_problem", staticmethod(boom)
        )
        with caplog.at_level(logging.WARNING, logger="repro.repair"):
            with make_backend(problem, TEST_CONFIG.scaled(workers=2)) as backend:
                assert isinstance(backend, SerialBackend)
                assert backend.evaluate_batch([GOLDEN_FF])[0].compiled
        assert any("falling back to serial" in r.message for r in caplog.records)


class TestLocalizationFromSummary:
    def test_pool_parent_localizes_without_resimulating(self, problem, monkeypatch):
        """A parent scored by the pool localizes from its recorded
        mismatch: no in-process simulation, and the node set a fresh
        simulation's trace gives."""
        import repro.core.harness as harness_mod
        from repro.benchsuite.scenario import simulate_design_text
        from repro.core.faultloc import localize_faults
        from repro.instrument.trace import output_mismatch

        config = TEST_CONFIG.scaled(backend="process", workers=2)
        engine = CirFixEngine(problem, config, seed=0)
        parent = Patch.empty()
        try:
            (evaluation,) = engine._evaluate_generation([parent], lambda: False)
            assert isinstance(engine._backend, ProcessPoolBackend)

            def no_simulation(*args, **kwargs):
                raise AssertionError("localization re-simulated an evaluated parent")

            monkeypatch.setattr(harness_mod, "evaluate_design_text", no_simulation)
            variant = engine.variant_tree(parent)
            localized = engine.fault_localization(parent, variant)
        finally:
            engine._release_backend()
        trace = simulate_design_text(evaluation.source_text, problem.testbench)
        mismatch = output_mismatch(problem.oracle, trace)
        assert mismatch, "the faulty design should mismatch the oracle"
        assert localized == localize_faults(variant, mismatch).nodes
        assert engine.simulations == engine.eval_sims == 1


class TestCrossBackendDeterminism:
    def _outcome(self, problem, backend):
        config = TEST_CONFIG.scaled(max_generations=4)
        engine = CirFixEngine(problem, config, seed=0, backend=backend)
        return engine.run()

    def test_engine_outcome_identical(self, problem):
        serial = self._outcome(problem, None)
        pool_backend = ProcessPoolBackend.for_problem(
            problem, TEST_CONFIG.scaled(max_generations=4), workers=4
        )
        try:
            pooled = self._outcome(problem, pool_backend)
        finally:
            pool_backend.close()
        assert serial.plausible == pooled.plausible
        assert serial.fitness == pooled.fitness
        assert serial.generations == pooled.generations
        assert serial.best_fitness_history == pooled.best_fitness_history
        assert serial.patch.describe() == pooled.patch.describe()
        assert serial.repaired_source == pooled.repaired_source

    def test_repair_parallel_trials_match_serial(self, problem):
        config = TEST_CONFIG.scaled(max_generations=3)
        serial = repair(problem, config, seeds=(0, 1))
        pooled = repair(problem, config.scaled(workers=2), seeds=(0, 1))
        assert serial.plausible == pooled.plausible
        assert serial.fitness == pooled.fitness
        assert serial.seed == pooled.seed
        assert serial.patch.describe() == pooled.patch.describe()
        assert serial.repaired_source == pooled.repaired_source
