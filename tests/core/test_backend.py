"""Evaluation-backend tests: the shared testbench, serial/pool batch parity,
supervised fault recovery, and cross-backend determinism of whole repair
runs.

The parallel backend must be an implementation detail: same scenario, same
seed, same outcome — whether candidates are scored in-process or by a pool
of worker processes.  And under deliberately planted faults (hangs, hard
exits, memory balloons — the chaos plan), the pool must quarantine exactly
the poisoned candidates and keep going.
"""

import dataclasses
import gc
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
from repro.core.harness import run_trials
from repro.core.oracle import ensure_instrumented, generate_oracle
from repro.core.patch import Edit, Patch
from repro.core.repair import repair
from repro.fuzz.faults import plant_eval_chaos
from repro.hdl import ast, generate, parse, structural_diff
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


#: Result fields that are wall-clock measurements, not outcomes.
WALL_CLOCK_FIELDS = {"eval_seconds", "parse_seconds", "sim_seconds"}


def untimed(result):
    """Every :class:`CandidateResult` field but the wall-clock ones."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in WALL_CLOCK_FIELDS
    }


def mixed_patches(design):
    """Patches over FAULTY_FF: two exact ones, and one whose tree strict
    codegen cannot print (the outer ``if`` gains an else-less inner ``if``
    as its then-branch, so the printed ``else`` binds to the inner one)."""
    negated = next(
        n for n in design.walk()
        if isinstance(n, ast.UnaryOp) and isinstance(n.operand, ast.Identifier)
        and n.operand.name == "t"
    )
    reset = next(n for n in design.walk() if isinstance(n, ast.NonBlockingAssign))
    dangling = ast.If(ast.Identifier("t"), reset.clone())
    return [
        Patch.empty(),
        Patch([Edit("replace", negated.node_id, ast.Identifier("t"))]),
        Patch([Edit("replace", reset.node_id, dangling)]),
    ]


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
        copies only the edited paths), and the serial backend simulates
        those trees as they are, so no engine's trial may leave a mark on
        the design: the same tree, node ids included."""
        problem = load_scenario("ff_cond").problem()
        design = problem.design
        before = design.clone()
        for runner in (repair, synth_repair, race_repair):
            runner(problem, TEST_CONFIG, (0,))
            assert structural_diff(design, before, compare_ids=True) is None, (
                runner.__name__
            )


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
            assert s.mismatch == p.mismatch

        # Exact candidates as the engine hands them over (text, tree and
        # edit list: the pool ships the edits), an inexact one as text
        # only, and text that does not parse.
        engine = CirFixEngine(problem, TEST_CONFIG, seed=0)
        batch = [engine._lookup(patch)[0] for patch in mixed_patches(problem.design)]
        assert [isinstance(c, tuple) for c in batch] == [True, True, False]
        batch.append(BROKEN_TEXT)
        with SerialBackend.for_problem(problem, TEST_CONFIG) as serial:
            serial_results = serial.evaluate_batch(batch)
        with ProcessPoolBackend.for_problem(problem, TEST_CONFIG, workers=2) as pool:
            pool_results = pool.evaluate_batch(batch)
        assert [untimed(r) for r in pool_results] == [untimed(r) for r in serial_results]
        assert [r.compiled for r in serial_results] == [True, True, True, False]
        assert serial_results[1].is_plausible

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


class TestPoolDesign:
    def test_pool_built_for_another_design_is_refused(self):
        """counter_reset and counter_sens share the instrumented testbench
        and the oracle but not the faulty design.  A pool built for
        counter_reset holds its design, so its workers would apply
        counter_sens's edit lists to the wrong tree: every runner refuses
        it before scoring or emitting anything.  A pool built without a
        design ships text only, and scores counter_sens as serial does."""
        reset = load_scenario("counter_reset").problem()
        sens = load_scenario("counter_sens").problem()
        assert reset.testbench_text == sens.testbench_text
        assert reset.oracle == sens.oracle
        with ProcessPoolBackend.for_problem(reset, TEST_CONFIG, workers=1) as pool:
            assert pool.design is reset.design
            for runner in (repair, synth_repair, race_repair):
                recorder = RecordingObserver()
                with pytest.raises(ValueError, match="another design"):
                    runner(sens, TEST_CONFIG, (0,), backend=pool, observers=[recorder])
                assert recorder.events == [], runner.__name__
            with pytest.raises(ValueError, match="another design"):
                run_trials(CirFixEngine, sens, TEST_CONFIG, backend=pool)
            with pytest.raises(ValueError, match="another design"):
                CirFixEngine(sens, TEST_CONFIG, seed=0, backend=pool)
            assert pool.take_incidents() == []

        engine = CirFixEngine(sens, TEST_CONFIG, seed=0)
        candidate, _ = engine._lookup(Patch.empty())
        assert isinstance(candidate, tuple)
        with SerialBackend.for_problem(sens, TEST_CONFIG) as serial:
            (want,) = serial.evaluate_batch([candidate])
        with ProcessPoolBackend(
            reset.testbench_text, reset.oracle, TEST_CONFIG, workers=1
        ) as textual:
            assert textual.design is None
            (got,) = textual.evaluate_batch([candidate])
            assert run_trials(CirFixEngine, sens, TEST_CONFIG, backend=textual)
        assert untimed(got) == untimed(want)


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
        assert result.mismatch == expected.mismatch
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

    def test_failed_apply_is_retried_then_quarantined(self, problem):
        """A worker that cannot apply a shipped edit list reports a crash:
        the candidate is retried, then quarantined, and the rest of the
        batch scores as usual."""
        config = SUPERVISED.scaled(eval_max_retries=1)
        engine = CirFixEngine(problem, config, seed=0)
        text, tree, edits = engine._lookup(Patch.empty())[0]
        target = next(n for n in problem.design.walk() if isinstance(n, ast.If))
        poisoned = (text, tree, [Edit("unknown_kind", target.node_id)])
        with SerialBackend.for_problem(problem, config) as serial:
            (expected,) = serial.evaluate_batch([GOLDEN_FF])
        with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
            results = pool.evaluate_batch([poisoned, GOLDEN_FF])
            incidents = pool.take_incidents()
        assert results[0].failure == EvalFailure("crash", 2)
        assert [(i.kind, i.quarantined) for i in incidents] == [
            ("crash", False), ("crash", True),
        ]
        assert untimed(results[1]) == untimed(expected)

    def test_inline_fallback_scores_trees(self, problem, monkeypatch):
        """With no worker left to respawn, the pool finishes the batch in
        its own process: exact candidates from their trees, and only the
        inexact candidate's text through a parse."""
        import repro.core.backend as backend_mod

        config = SUPERVISED.scaled(eval_max_retries=1)
        engine = CirFixEngine(problem, config, seed=0)
        batch = [engine._lookup(patch)[0] for patch in mixed_patches(problem.design)]
        with SerialBackend.for_problem(problem, config) as serial:
            expected = serial.evaluate_batch(batch)
        parsed = []
        real_parse = backend_mod.parse

        def parse_recorded(text):
            parsed.append(text)
            return real_parse(text)

        def no_worker(*args):
            raise OSError("cannot start a worker")

        with plant_eval_chaos("exit@0"):
            with ProcessPoolBackend.for_problem(problem, config, workers=1) as pool:
                monkeypatch.setattr(backend_mod, "_Worker", no_worker)
                monkeypatch.setattr(backend_mod, "parse", parse_recorded)
                results = pool.evaluate_batch(batch)
        assert [untimed(r) for r in results] == [untimed(r) for r in expected]
        # The testbench, then the one inexact candidate.
        assert parsed == [problem.testbench_text, batch[2]]

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
            assert (s.fitness, s.compiled, s.mismatch) == (
                p.fitness, p.compiled, p.mismatch
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
        assert result.mismatch is None
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


class TestSimulatorsFreeThemselves:
    """Scoring a candidate leaves no cyclic garbage: the pipeline closes
    its simulator, so reference counting frees it."""

    #: A self-recursive function call, made at time 0: the simulation
    #: raises RecursionError, the candidate crashes at run time.
    RECURSE = (
        "function [3:0] boom; input [3:0] x; boom = boom(x); endfunction\n"
        "reg [3:0] boom_y;\n"
        "initial boom_y = boom(4'd1);\n"
    )

    @pytest.mark.parametrize("name", ["counter_reset", "tate_shift_op", "i2c_ack"])
    def test_no_cyclic_garbage(self, name):
        scenario = load_scenario(name)
        problem = scenario.problem()
        config = scenario.suggested_config(TEST_CONFIG)
        text = generate(problem.design)
        end = text.rindex("endmodule")
        crashing = text[:end] + self.RECURSE + text[end:]
        # Warm the per-testbench compile state, then start from no garbage.
        evaluate_design_text(text, problem.testbench, problem.oracle, config)
        gc.collect()
        gc.disable()
        try:
            compiled = evaluate_design_text(
                text, problem.testbench, problem.oracle, config
            )
            crashed = evaluate_design_text(
                crashing, problem.testbench, problem.oracle, config
            )
            garbage = gc.collect()
        finally:
            gc.enable()
        assert compiled.compiled and compiled.mismatch is not None
        assert crashed.compiled and crashed.mismatch is None  # crashed at run time
        assert garbage == 0


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
    def test_pool_parent_localizes_without_resimulating(
        self, problem, count_simulations
    ):
        """On the pool, the engine process simulates nothing during a whole
        run — not the unpatched design, not a minimization subset — and
        a parent localizes from its recorded mismatch, to the node set a
        fresh simulation's trace gives."""
        from repro.benchsuite.scenario import simulate_design_text
        from repro.core.faultloc import localize_faults
        from repro.instrument.trace import output_mismatch

        config = TEST_CONFIG.scaled(backend="process", workers=2)
        engine = CirFixEngine(problem, config, seed=0)
        runs = count_simulations()
        outcome = engine.run()
        parent = Patch.empty()
        variant = engine.variant_tree(parent)
        localized = engine.fault_localization(parent, variant)
        assert runs == [], "the engine process ran a simulation"
        assert outcome.eval_sims == engine.eval_sims > 1

        trace = simulate_design_text(engine._applied(parent)[1], problem.testbench)
        mismatch = output_mismatch(problem.oracle, trace)
        assert mismatch, "the faulty design should mismatch the oracle"
        assert localized == localize_faults(variant, mismatch).nodes


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
