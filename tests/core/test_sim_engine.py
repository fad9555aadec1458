"""The compiled simulator seen from the repair engine.

Covers the backend-level :class:`~repro.core.backend.EvalCache`, the
adaptive chunk sizing, and the headline guarantee: a fixed-seed repair
on the compiled simulator produces a bit-identical outcome to the same
repair with the reference interpreter substituted in.
"""

from repro.benchsuite import load_scenario
from repro.core import backend as backend_mod
from repro.core.backend import EvalCache, SerialBackend, make_backend
from repro.core.repair import CirFixEngine, adaptive_chunk_size
from repro.experiments.common import SMOKE
from repro.sim import Simulator


class TestAdaptiveChunkSize:
    def test_small_batches_use_the_floor(self):
        assert adaptive_chunk_size(1, 8) == 8
        assert adaptive_chunk_size(8, 8) == 8

    def test_exact_multiples_are_unchanged(self):
        assert adaptive_chunk_size(24, 8) == 8
        assert adaptive_chunk_size(16, 8) == 8

    def test_runt_chunks_are_absorbed(self):
        # 25 pending at floor 8 would be 8+8+8+1; adaptive gives 9+9+7.
        assert adaptive_chunk_size(25, 8) == 9
        # 15 at floor 8: one chunk instead of 8+7.
        assert adaptive_chunk_size(15, 8) == 15

    def test_never_drops_candidates(self):
        for batch in range(1, 200):
            for floor in (1, 4, 8, 16):
                size = adaptive_chunk_size(batch, floor)
                chunks = -(-batch // size)
                assert chunks * size >= batch
                # No chunk is larger than ~2x the floor once batches are
                # big enough to split.
                if batch > 2 * floor:
                    assert size < 2 * floor + floor

    def test_degenerate_floor(self):
        assert adaptive_chunk_size(10, 0) == 1
        assert adaptive_chunk_size(0, 8) == 8


class TestEvalCache:
    def _result(self):
        from repro.core.backend import CandidateResult

        return CandidateResult(0.5, True, None)

    def test_hit_replays_the_stored_result(self):
        cache = EvalCache()
        result = self._result()
        cache.put("module a; endmodule", result)
        assert cache.get("module a; endmodule") is result
        assert cache.info() == {"hits": 1, "misses": 0, "store_hits": 0, "size": 1}

    def test_miss_counts(self):
        cache = EvalCache()
        assert cache.get("nope") is None
        assert cache.info()["misses"] == 1

    def test_quarantined_results_are_never_cached(self):
        from repro.core.backend import _quarantine_result

        cache = EvalCache()
        cache.put("text", _quarantine_result("timeout", 3))
        assert cache.get("text") is None


class TestSerialBackendCache:
    def _backend(self):
        scenario = load_scenario("counter_reset")
        return scenario, SerialBackend(
            scenario.problem(), scenario.suggested_config(SMOKE)
        )

    def test_repeat_batch_hits_the_cache(self):
        scenario, backend = self._backend()
        texts = [scenario.faulty_design_text]
        first = backend.evaluate_batch(texts)
        second = backend.evaluate_batch(texts)
        assert backend.cache.info()["hits"] == 1
        # The replayed result is the recorded one — telemetry included.
        assert second[0] is first[0]

    def test_fresh_backend_reevaluates(self):
        scenario, backend = self._backend()
        texts = [scenario.faulty_design_text]
        first = backend.evaluate_batch(texts)
        fresh = SerialBackend(backend.problem, backend.config)
        second = fresh.evaluate_batch(texts)
        assert fresh.cache.info()["hits"] == 0
        assert second[0] is not first[0]
        assert second[0].fitness == first[0].fitness

    def test_run_keeps_every_result(self):
        """300 distinct candidates, then the first again: still a hit,
        however many results the run has recorded since."""
        scenario, backend = self._backend()
        texts = [
            f"{scenario.faulty_design_text}\n// candidate {i}\n" for i in range(300)
        ]
        results = backend.evaluate_batch(texts)
        assert backend.cache.info()["hits"] == 0
        replay = backend.evaluate_batch(texts[:1])
        assert backend.cache.info()["hits"] == 1
        assert replay[0] is results[0]


def _outcome_key(outcome):
    """Everything except wall-clock (AST nodes compare by identity, so
    the patch is compared in its structural repr form)."""
    return (
        outcome.plausible,
        outcome.fitness,
        outcome.generations,
        outcome.fitness_evals,
        outcome.eval_sims,
        outcome.simulations,
        outcome.seed,
        tuple(outcome.best_fitness_history),
        repr(outcome.patch),
        outcome.repaired_source,
    )


def _smoke_outcome():
    scenario = load_scenario("counter_reset")
    config = scenario.suggested_config(SMOKE)
    problem = scenario.problem()
    with make_backend(problem, config) as backend:
        return CirFixEngine(problem, config, 0, backend=backend).run()


class TestEngineOutcomeParity:
    def test_smoke_repair_is_bit_identical_across_engines(self, monkeypatch):
        compiled = _smoke_outcome()
        built = []

        def interpreter(source, max_steps, **_template_cache):
            """Stand-in for ``CompiledSimulator``: the reference
            interpreter (the shared-template arguments are ignored)."""
            built.append(source)
            return Simulator(source, max_steps=max_steps)

        monkeypatch.setattr(backend_mod, "CompiledSimulator", interpreter)
        interp = _smoke_outcome()
        assert built, "the interpreter substitution was never used"
        assert _outcome_key(interp) == _outcome_key(compiled)
        assert compiled.plausible
