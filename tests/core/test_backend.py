"""Evaluation-backend tests: the shared testbench, serial/pool batch parity,
one problem per backend and its run's templates, supervised fault
recovery, warm workers shared by successive pools, and cross-backend
determinism of whole repair runs.

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
import sys
import threading

import pytest

import repro.core.backend as backend_mod
from repro.benchsuite import load_scenario
from repro.core import TEST_CONFIG, CirFixEngine, RepairProblem
from repro.core.backend import (
    EvalFailure,
    ProcessPoolBackend,
    SerialBackend,
    _Task,
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
from . import worker_exit_checks

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


def parked():
    """Every worker in the process-wide idle set."""
    with backend_mod._IDLE_LOCK:
        return [worker for workers in backend_mod._IDLE.values() for worker in workers]


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
        serial = SerialBackend(problem, TEST_CONFIG)
        pool = ProcessPoolBackend(problem, TEST_CONFIG, workers=2)
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
        with SerialBackend(problem, TEST_CONFIG) as serial:
            serial_results = serial.evaluate_batch(batch)
        with ProcessPoolBackend(problem, TEST_CONFIG, workers=2) as pool:
            pool_results = pool.evaluate_batch(batch)
        assert [untimed(r) for r in pool_results] == [untimed(r) for r in serial_results]
        assert [r.compiled for r in serial_results] == [True, True, True, False]
        assert serial_results[1].is_plausible

    def test_batch_flags_uncompilable(self, problem):
        backend = SerialBackend(problem, TEST_CONFIG)
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
        and the oracle but not the faulty design.  A backend built for
        counter_reset scores counter_reset: a pool's workers would apply
        counter_sens's edit lists to the wrong tree, and a serial backend
        would score the run under a problem it was not built for.  Every
        runner refuses either backend before scoring or emitting
        anything."""
        reset = load_scenario("counter_reset").problem()
        sens = load_scenario("counter_sens").problem()
        assert reset.testbench_text == sens.testbench_text
        assert reset.oracle == sens.oracle
        builds = (
            lambda: SerialBackend(reset, TEST_CONFIG),
            lambda: ProcessPoolBackend(reset, TEST_CONFIG, workers=1),
        )
        for build in builds:
            with build() as backend:
                kind = type(backend).__name__
                for runner in (repair, synth_repair, race_repair):
                    recorder = RecordingObserver()
                    with pytest.raises(ValueError, match="another problem"):
                        runner(
                            sens, TEST_CONFIG, (0,), backend=backend,
                            observers=[recorder],
                        )
                    assert recorder.events == [], (kind, runner.__name__)
                with pytest.raises(ValueError, match="another problem"):
                    run_trials(CirFixEngine, sens, TEST_CONFIG, backend=backend)
                with pytest.raises(ValueError, match="another problem"):
                    CirFixEngine(sens, TEST_CONFIG, seed=0, backend=backend)
                assert backend.take_incidents() == [], kind
                assert backend.cache.info()["misses"] == 0, kind


class TestRunTemplates:
    """A backend compiles the testbench's process templates once for its
    run and shares them with no other backend."""

    def test_backends_do_not_share_templates(self, problem, monkeypatch):
        import repro.sim.compile as compile_mod

        testbench_items = {
            id(item) for module in problem.testbench.modules for item in module.items
        }
        compiled = []
        for name in ("_compile_always", "_compile_initial"):
            real = getattr(compile_mod, name)

            def counted(item, scope, real=real):
                if id(item) in testbench_items:
                    compiled.append(item)
                return real(item, scope)

            monkeypatch.setattr(compile_mod, name, counted)
        first = SerialBackend(problem, TEST_CONFIG)
        second = SerialBackend(problem, TEST_CONFIG)
        first.evaluate_batch([GOLDEN_FF])
        once = len(compiled)
        assert once > 0
        assert first.templates and second.templates == {}
        first.evaluate_batch([FAULTY_FF])
        assert len(compiled) == once  # the rest of the run reuses them
        second.evaluate_batch([FAULTY_FF])
        assert len(compiled) == 2 * once  # another run compiles its own

    def test_threads_score_many_problems_concurrently(self, problem):
        """Two threads, each building its own serial backends, score
        round-robin over more distinct problems than a worker keeps
        testbenches for, with thread switches forced often; no
        evaluation raises, and each scores as one backend alone does."""
        golden = parse(GOLDEN_FF)
        problems = [
            RepairProblem(
                parse(FAULTY_FF), ensure_instrumented(parse(TESTBENCH), golden),
                problem.oracle, f"ff_{i}",
            )
            for i in range(10)
        ]
        assert len(problems) > backend_mod._TB_STATE_CAP
        texts = [GOLDEN_FF, FAULTY_FF]
        with SerialBackend(problem, TEST_CONFIG) as serial:
            expected = [untimed(r) for r in serial.evaluate_batch(texts)]
        scored: dict[str, list] = {"forward": [], "backward": []}
        errors = []

        def score(order, results):
            try:
                for _ in range(3):
                    for each in order:
                        with SerialBackend(each, TEST_CONFIG) as backend:
                            results.extend(backend.evaluate_batch(texts))
            except Exception as exc:  # noqa: BLE001 - the failure is the observable
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=score, args=(problems, scored["forward"])),
                threading.Thread(
                    target=score, args=(problems[::-1], scored["backward"])
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for results in scored.values():
            assert len(results) == 3 * len(problems) * len(texts)
            assert [untimed(r) for r in results] == expected * (3 * len(problems))


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


class TestSupervisedPool:
    def test_hang_quarantined_as_timeout(self, problem):
        config = SUPERVISED.scaled(eval_deadline_seconds=1.0)
        with plant_eval_chaos("hang@0"):
            with ProcessPoolBackend(problem, config, workers=2) as pool:
                results = pool.evaluate_batch([BROKEN_TEXT, GOLDEN_FF, FAULTY_FF])
        assert results[0].failure == EvalFailure("timeout", 1)
        assert results[0].fitness == 0.0 and not results[0].compiled
        # The rest of the batch is unaffected by the poisoned slot.
        assert results[1].compiled and results[1].failure is None
        assert results[2].compiled and results[2].failure is None

    def test_hard_exit_retried_then_quarantined(self, problem):
        config = SUPERVISED.scaled(eval_max_retries=1)
        with plant_eval_chaos("exit@1"):
            with ProcessPoolBackend(problem, config, workers=2) as pool:
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
            with ProcessPoolBackend(problem, config, workers=2) as pool:
                results = pool.evaluate_batch([GOLDEN_FF, FAULTY_FF])
        assert results[0].failure == EvalFailure("oom", 1)
        assert results[1].failure is None and results[1].compiled

    def test_once_fault_recovers_on_retry(self, problem):
        config = SUPERVISED.scaled(eval_max_retries=1)
        with SerialBackend(problem, config) as serial:
            (expected,) = serial.evaluate_batch([GOLDEN_FF])
        with plant_eval_chaos("exit@0:once"):
            with ProcessPoolBackend(problem, config, workers=2) as pool:
                (result,) = pool.evaluate_batch([GOLDEN_FF])
                incidents = pool.take_incidents()
        # First attempt died, the requeued retry produced the real score.
        assert result.failure is None
        assert result.fitness == expected.fitness
        assert result.mismatch == expected.mismatch
        assert [(i.kind, i.quarantined) for i in incidents] == [("crash", False)]

    def test_pool_keeps_working_after_respawn(self, problem):
        with plant_eval_chaos("exit@0"):
            with ProcessPoolBackend(problem, SUPERVISED, workers=2) as pool:
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
        with SerialBackend(problem, config) as serial:
            (expected,) = serial.evaluate_batch([GOLDEN_FF])
        with ProcessPoolBackend(problem, config, workers=2) as pool:
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
        with SerialBackend(problem, config) as serial:
            expected = serial.evaluate_batch(batch)
        parsed = []
        real_parse = backend_mod.parse

        def parse_recorded(text):
            parsed.append(text)
            return real_parse(text)

        def no_worker(*args):
            raise OSError("cannot start a worker")

        with plant_eval_chaos("exit@0"):
            with ProcessPoolBackend(problem, config, workers=1) as pool:
                monkeypatch.setattr(backend_mod, "_Worker", no_worker)
                monkeypatch.setattr(backend_mod, "parse", parse_recorded)
                results = pool.evaluate_batch(batch)
        assert [untimed(r) for r in results] == [untimed(r) for r in expected]
        # The one inexact candidate: the testbench is the problem's tree.
        assert parsed == [batch[2]]

    def test_take_incidents_drains(self, problem):
        with plant_eval_chaos("exit@0"):
            with ProcessPoolBackend(problem, SUPERVISED, workers=2) as pool:
                pool.evaluate_batch([GOLDEN_FF])
                assert len(pool.take_incidents()) == 1
                assert pool.take_incidents() == []

    def test_no_chaos_no_incidents_bitwise_parity(self, problem):
        texts = [generate(problem.design), GOLDEN_FF, BROKEN_TEXT, FAULTY_FF]
        with SerialBackend(problem, SUPERVISED) as serial:
            expected = serial.evaluate_batch(texts)
        with ProcessPoolBackend(problem, SUPERVISED, workers=2) as pool:
            results = pool.evaluate_batch(texts)
            assert pool.take_incidents() == []
        for s, p in zip(expected, results):
            assert (s.fitness, s.compiled, s.mismatch) == (
                p.fitness, p.compiled, p.mismatch
            )
            assert p.failure is None

    def test_empty_batch(self, problem):
        with ProcessPoolBackend(problem, SUPERVISED, workers=2) as pool:
            assert pool.evaluate_batch([]) == []


class TestBackendLifecycle:
    def test_serial_context_manager(self, problem):
        with SerialBackend(problem, TEST_CONFIG) as backend:
            (result,) = backend.evaluate_batch([GOLDEN_FF])
        assert result.compiled
        assert backend.take_incidents() == []

    def test_pool_context_manager_reaps_workers(self, problem):
        """Leaving the ``with`` block parks the pool's healthy idle
        workers; the interpreter-exit hook shuts every parked worker down
        (``worker_exit_checks`` ends real interpreters)."""
        with ProcessPoolBackend(problem, TEST_CONFIG, workers=2) as pool:
            processes = [worker.process for worker in pool._workers]
            assert pool.evaluate_batch([GOLDEN_FF])[0].compiled
        assert all(process.is_alive() for process in processes)
        assert set(processes) <= {worker.process for worker in parked()}
        backend_mod._close_idle_workers()
        for process in processes:
            assert not process.is_alive()
        assert parked() == []

    @pytest.mark.parametrize("mode", worker_exit_checks.MODES)
    def test_no_worker_outlives_its_interpreter(self, mode):
        """A child interpreter parks two workers, then exits, is killed
        with its workers parked, or is killed mid-batch: every worker
        PID it recorded is gone within a bounded wait."""
        assert worker_exit_checks.check(mode) == []

    def test_pool_close_idempotent_and_use_after_close(self, problem):
        pool = ProcessPoolBackend(problem, TEST_CONFIG, workers=1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="after close"):
            pool.evaluate_batch([GOLDEN_FF])


class TestWarmWorkers:
    """Workers outlive the pool that borrowed them: a closed pool parks
    its healthy idle workers, and the next pool borrows them and hands
    each its own problem.  Results, incidents, chaos ordinals and
    deadlines stay on each backend."""

    @pytest.fixture(autouse=True)
    def no_parked_workers(self):
        backend_mod._close_idle_workers()
        yield
        backend_mod._close_idle_workers()

    @staticmethod
    def pids(pool):
        return {worker.process.pid for worker in pool._workers}

    @staticmethod
    def count_forks(monkeypatch):
        forks = []
        spawn = ProcessPoolBackend._spawn

        def counted(pool):
            forks.append(pool)
            return spawn(pool)

        monkeypatch.setattr(ProcessPoolBackend, "_spawn", counted)
        return forks

    def test_second_pool_forks_nothing_and_scores_as_serial(self, problem, monkeypatch):
        forks = self.count_forks(monkeypatch)
        texts = [generate(problem.design), GOLDEN_FF, BROKEN_TEXT, FAULTY_FF]
        with SerialBackend(problem, TEST_CONFIG) as serial:
            expected = serial.evaluate_batch(texts)
        with ProcessPoolBackend(problem, TEST_CONFIG, workers=2) as first:
            first.evaluate_batch(texts[:1])
            warm = self.pids(first)
        assert len(forks) == 2
        with ProcessPoolBackend(problem, TEST_CONFIG, workers=2) as second:
            assert self.pids(second) == warm
            results = second.evaluate_batch(texts)
        assert len(forks) == 2
        assert [untimed(r) for r in results] == [untimed(r) for r in expected]

    def test_worker_serves_another_problem(self):
        """counter_reset and counter_sens share the testbench and the
        oracle, not the design: workers that served counter_reset apply
        counter_sens's edit lists to counter_sens's design."""
        reset = load_scenario("counter_reset").problem()
        sens = load_scenario("counter_sens").problem()
        with ProcessPoolBackend(reset, TEST_CONFIG, workers=2) as pool:
            pool.evaluate_batch([generate(reset.design), generate(sens.design)])
            warm = self.pids(pool)
        engine = CirFixEngine(sens, TEST_CONFIG, seed=0)
        batch = [engine._lookup(patch)[0] for patch in (Patch.empty(),)]
        batch += [generate(sens.design), generate(reset.design)]
        assert isinstance(batch[0], tuple)
        with SerialBackend(sens, TEST_CONFIG) as serial:
            expected = serial.evaluate_batch(batch)
        with ProcessPoolBackend(sens, TEST_CONFIG, workers=2) as pool:
            assert self.pids(pool) == warm
            results = pool.evaluate_batch(batch)
            assert pool.take_incidents() == []
        assert [untimed(r) for r in results] == [untimed(r) for r in expected]

    def test_problem_that_does_not_load_is_retried_then_quarantined(self, problem):
        """A warm worker handed a testbench it cannot parse reports a
        contained crash: the candidate is retried, then quarantined, and
        the worker lives on to serve the next pool."""
        config = SUPERVISED.scaled(eval_max_retries=1)
        with SerialBackend(problem, config) as serial:
            (expected,) = serial.evaluate_batch([GOLDEN_FF])
        with ProcessPoolBackend(problem, config, workers=1) as pool:
            pool.evaluate_batch([FAULTY_FF])
            warm = self.pids(pool)
        unloadable = RepairProblem(problem.design, problem.testbench, problem.oracle)
        unloadable.testbench_text = BROKEN_TEXT
        broken = ProcessPoolBackend(unloadable, config, workers=1)
        with broken:
            assert self.pids(broken) == warm
            (result,) = broken.evaluate_batch([GOLDEN_FF])
            incidents = broken.take_incidents()
        assert result.failure == EvalFailure("crash", 2)
        assert [(i.kind, i.quarantined, i.exitcode) for i in incidents] == [
            ("crash", False, None), ("crash", True, None),
        ]
        with ProcessPoolBackend(problem, config, workers=1) as pool:
            assert self.pids(pool) == warm
            (result,) = pool.evaluate_batch([GOLDEN_FF])
        assert untimed(result) == untimed(expected)

    def test_failed_workers_are_never_parked(self, problem):
        """A worker killed by a deadline, one that exited under chaos, and
        one with a task in flight are discarded; the healthy rest park."""
        config = SUPERVISED.scaled(eval_deadline_seconds=1.0)
        gone = []
        for plan in ("hang@0", "exit@0"):
            with plant_eval_chaos(plan):
                with ProcessPoolBackend(problem, config, workers=2) as pool:
                    before = {w.process.pid: w.process for w in pool._workers}
                    results = pool.evaluate_batch([GOLDEN_FF, FAULTY_FF])
                    assert results[0].failure is not None
                    after = self.pids(pool)
            (dead,) = set(before) - after
            gone.append(before[dead])
        with ProcessPoolBackend(problem, config, workers=2) as pool:
            busy = pool._workers[0]
            assert pool._assign(busy, _Task(0, GOLDEN_FF))
            gone.append(busy.process)
        assert not any(process.is_alive() for process in gone)
        assert {w.process for w in parked()}.isdisjoint(gone)
        assert len(parked()) == 1

    def test_other_sandbox_takes_no_parked_worker(self, problem):
        """A pool with another ``worker_mem_mb`` forks its own workers,
        and the parked ones it cannot use are shut down in their place."""
        with ProcessPoolBackend(problem, TEST_CONFIG, workers=2) as pool:
            unsandboxed = [w.process for w in pool._workers]
        with ProcessPoolBackend(problem, SUPERVISED, workers=2) as pool:
            assert self.pids(pool).isdisjoint(p.pid for p in unsandboxed)
            assert all(w.mem_mb == SUPERVISED.worker_mem_mb for w in pool._workers)
            assert not any(process.is_alive() for process in unsandboxed)
            assert parked() == []
            (result,) = pool.evaluate_batch([GOLDEN_FF])
        assert result.compiled and result.failure is None
        assert {w.mem_mb for w in parked()} == {SUPERVISED.worker_mem_mb}

    def test_two_threads_borrow_distinct_workers(self, problem, monkeypatch):
        with ProcessPoolBackend(problem, TEST_CONFIG, workers=4) as pool:
            warm = self.pids(pool)
        forks = self.count_forks(monkeypatch)
        start = threading.Barrier(2)
        borrowed = {}

        def borrow(name):
            start.wait()
            pool = ProcessPoolBackend(problem, TEST_CONFIG, workers=2)
            borrowed[name] = (pool, self.pids(pool))

        threads = [threading.Thread(target=borrow, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        (pool_a, a), (pool_b, b) = borrowed["a"], borrowed["b"]
        try:
            assert len(a) == len(b) == 2
            assert a.isdisjoint(b) and a | b == warm
            assert forks == []
        finally:
            pool_a.close()
            pool_b.close()

    def test_each_backend_starts_empty(self, problem):
        """The memory tier, the incidents and the chaos ordinals belong
        to one backend: warm workers carry none of them over."""
        with plant_eval_chaos("exit@1"):
            with ProcessPoolBackend(problem, SUPERVISED, workers=2) as first:
                first.evaluate_batch([GOLDEN_FF, FAULTY_FF, BROKEN_TEXT])
                assert first.cache.info()["size"] == 2
            with ProcessPoolBackend(problem, SUPERVISED, workers=2) as second:
                assert second.cache.info()["size"] == 0
                assert second.take_incidents() == []
                results = second.evaluate_batch([GOLDEN_FF, FAULTY_FF])
                assert second.cache.info()["misses"] == 2
                assert second.cache.info()["hits"] == 0
                # Ordinal 1 is this backend's second dispatch.
                assert [r.failure for r in results] == [None, EvalFailure("crash", 1)]

    def test_single_caller_keeps_two_workers(self, monkeypatch):
        """Four jobs on each of six problems with ``workers=2``, one after
        another: two forks in all, so never more than two workers."""
        forks = self.count_forks(monkeypatch)
        names = (
            "counter_reset", "counter_sens", "ff_cond", "mux_hex",
            "dec_numeric", "lshift_cond",
        )
        budget = TEST_CONFIG.scaled(
            workers=2, population_size=6, max_generations=1, max_fitness_evals=8,
            minimize_budget=4,
        )
        for seed in range(4):
            for name in names:
                scenario = load_scenario(name)
                config = scenario.suggested_config(budget)
                pooled = repair(scenario.problem(), config, seeds=(seed,))
                serial = repair(
                    scenario.problem(), config.scaled(backend="serial"), seeds=(seed,)
                )
                assert pooled.repaired_source == serial.repaired_source
                assert pooled.eval_sims == serial.eval_sims
                assert len(parked()) == 2
        assert len(forks) == 2


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
    its simulator, so reference counting frees it, and a simulator that
    fails to elaborate closes what it built before it raises."""

    #: A self-recursive function call, made at time 0: the simulation
    #: raises RecursionError, the candidate crashes at run time.
    RECURSE = (
        "function [3:0] boom; input [3:0] x; boom = boom(x); endfunction\n"
        "reg [3:0] boom_y;\n"
        "initial boom_y = boom(4'd1);\n"
    )
    #: An instance of a module nobody declares: elaboration fails after
    #: building part of the instance tree, its processes and drivers.
    UNDECLARED = "no_such_module u_missing(1'b0);\n"

    @pytest.mark.parametrize("name", ["counter_reset", "tate_shift_op", "i2c_ack"])
    def test_no_cyclic_garbage(self, name):
        scenario = load_scenario(name)
        problem = scenario.problem()
        config = scenario.suggested_config(TEST_CONFIG)
        text = generate(problem.design)
        end = text.rindex("endmodule")
        crashing = text[:end] + self.RECURSE + text[end:]
        unbuildable = text[:end] + self.UNDECLARED + text[end:]
        # Warm the run's testbench templates, then start from no garbage.
        templates: dict = {}
        evaluate_design_text(
            text, problem.testbench, problem.oracle, config, None, templates
        )
        gc.collect()
        gc.disable()
        try:
            compiled = evaluate_design_text(
                text, problem.testbench, problem.oracle, config, None, templates
            )
            crashed = evaluate_design_text(
                crashing, problem.testbench, problem.oracle, config, None, templates
            )
            unbuilt = evaluate_design_text(
                unbuildable, problem.testbench, problem.oracle, config, None, templates
            )
            garbage = gc.collect()
        finally:
            gc.enable()
        assert compiled.compiled and compiled.mismatch is not None
        assert crashed.compiled and crashed.mismatch is None  # crashed at run time
        assert not unbuilt.compiled  # failed to elaborate
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

        def boom(problem, config, workers):
            raise OSError("cannot fork")

        monkeypatch.setattr(backend_mod, "ProcessPoolBackend", boom)
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
        pool_backend = ProcessPoolBackend(
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
