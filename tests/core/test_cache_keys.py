"""Cache-key completeness: outcome-relevant config must never alias.

The persistent eval store is shared across runs, backends, and daemon
restarts, so two evaluation contexts that could produce *different*
results for the same candidate text must hash to different context
digests.  Conversely, knobs that only shape the GP search schedule (not
any single candidate's score) must NOT perturb the digest — otherwise
warm resubmissions with a tweaked budget would never hit.
"""

import dataclasses

import pytest

from repro.benchsuite import load_scenario
from repro.core.backend import (
    EVAL_PAYLOAD_VERSION,
    EvalCache,
    ProcessPoolBackend,
    SerialBackend,
    decode_eval_payload,
    encode_eval_payload,
    eval_context_digest,
)
from repro.core.config import RepairConfig


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("counter_reset")


@pytest.fixture(scope="module")
def base_digest(scenario):
    return eval_context_digest(
        scenario.project.testbench_text, scenario.oracle(), RepairConfig()
    )


def digest_with(scenario, **overrides) -> str:
    config = dataclasses.replace(RepairConfig(), **overrides)
    return eval_context_digest(
        scenario.project.testbench_text, scenario.oracle(), config
    )


class TestOutcomeRelevantKnobs:
    """Every knob that can change a candidate's score splits the key."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"phi": 3.0},
            {"max_sim_time": 123},
            {"max_sim_steps": 999},
            {"worker_mem_mb": 256},
            # Deadline buckets: 0 (off) and a 1-minute bucket vs the
            # default 10-minute bucket.
            {"eval_deadline_seconds": 0.0},
            {"eval_deadline_seconds": 30.0, "backend": "process"},
        ],
    )
    def test_change_splits_the_digest(self, scenario, base_digest, overrides):
        assert digest_with(scenario, **overrides) != base_digest

    def test_deadline_buckets_quantize_to_minutes(self, scenario):
        # Same 1-minute bucket → same digest (restarts with slightly
        # different deadlines still share the cache) ...
        a = digest_with(scenario, eval_deadline_seconds=30.0)
        b = digest_with(scenario, eval_deadline_seconds=59.0)
        assert a == b
        # ... but crossing a bucket boundary splits it.
        c = digest_with(scenario, eval_deadline_seconds=61.0)
        assert a != c

    def test_testbench_and_oracle_split_the_digest(self, scenario):
        config = RepairConfig()
        base = eval_context_digest(
            scenario.project.testbench_text, scenario.oracle(), config
        )
        other_tb = eval_context_digest(
            scenario.project.testbench_text + "\n// v2", scenario.oracle(), config
        )
        assert other_tb != base
        halved = scenario.oracle().subsample(0.5)
        other_oracle = eval_context_digest(
            scenario.project.testbench_text, halved, config
        )
        assert other_oracle != base


class TestScheduleKnobsExcluded:
    """GP schedule knobs never alias-split the persistent cache."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"population_size": 7},
            {"max_generations": 99},
            {"max_wall_seconds": 1.0},
            {"max_fitness_evals": 5},
            {"eval_chunk_size": 3},
            {"workers": 8},
            {"eval_cache_size": 16},
            {"minimize_budget": 1},
        ],
    )
    def test_schedule_change_keeps_the_digest(self, scenario, base_digest, overrides):
        assert digest_with(scenario, **overrides) == base_digest

    def test_never_aliases_across_any_relevant_change(self, scenario):
        """The headline property: pairwise-distinct digests across a
        sweep of outcome-relevant contexts (no hash collisions/aliasing
        among the realistic neighbouring configurations)."""
        contexts = [
            {},
            {"phi": 3.0},
            {"max_sim_time": 123},
            {"eval_deadline_seconds": 30.0},
            {"eval_deadline_seconds": 120.0},
            {"worker_mem_mb": 256},
        ]
        digests = [digest_with(scenario, **c) for c in contexts]
        assert len(set(digests)) == len(digests)


class TestPayloadCodec:
    """encode/decode round-trips every CandidateResult shape we persist."""

    def test_success_roundtrip(self):
        from repro.core.backend import CandidateResult

        result = CandidateResult(0.75, True, ("q",), sim_events=10, sim_steps=20)
        decoded = decode_eval_payload(encode_eval_payload(result))
        assert decoded == result

    def test_failure_without_trace_roundtrip(self):
        from repro.core.backend import CandidateResult

        result = CandidateResult(0.0, False, None)
        decoded = decode_eval_payload(encode_eval_payload(result))
        assert decoded is not None
        assert decoded.fitness == 0.0
        assert decoded.mismatch is None

    def test_garbage_payload_decodes_to_none(self):
        assert decode_eval_payload({"version": EVAL_PAYLOAD_VERSION}) is None
        assert decode_eval_payload({"version": 99, "fitness": 1.0}) is None

    def test_version_two_payload_decodes_to_none(self):
        """Entries written while results carried a fitness breakdown and a
        trace summary (version 2) read as misses and refill once."""
        legacy = {
            "version": 2,
            "fitness": 0.5,
            "compiled": True,
            "breakdown": {
                "fitness": 0.5, "raw_sum": 1.0, "total": 2.0,
                "matches": 1, "mismatches": 1, "xz_positions": 0,
            },
            "summary": {"rows": 1, "recorded_vars": 1, "mismatched_vars": ["q"]},
            "eval_seconds": 0.0,
            "parse_seconds": 0.0,
            "sim_seconds": 0.0,
            "sim_events": 0,
            "sim_steps": 0,
        }
        assert decode_eval_payload(legacy) is None

    def test_version_one_payload_decodes_to_none(self):
        """Entries written while payloads carried the full trace (version
        1, with ``trace_csv``) read as misses, so they are recomputed and
        rewritten once."""
        from repro.core.backend import CandidateResult

        legacy = encode_eval_payload(CandidateResult(0.0, False, None))
        legacy.update(version=1, trace_csv="time,q\n0,1\n")
        assert decode_eval_payload(legacy) is None


class TestTieredEvalCache:
    """The in-memory EvalCache over a persistent store."""

    def _success(self):
        from repro.core.backend import CandidateResult

        return CandidateResult(0.5, True, ())

    def _store(self, tmp_path):
        from repro.cache import PersistentEvalCache

        PersistentEvalCache.reset_shared()
        return PersistentEvalCache(tmp_path / "store")

    def test_disk_hit_after_memory_restart(self, tmp_path):
        store = self._store(tmp_path)
        warm = EvalCache(8, store=store, context="ctx")
        warm.put("module a; endmodule", self._success())
        # Same store, fresh memory tier: must hit the disk.
        cold = EvalCache(8, store=store, context="ctx")
        result = cold.get("module a; endmodule")
        assert result == self._success()
        assert cold.info()["store_hits"] == 1

    def test_context_isolates_entries(self, tmp_path):
        store = self._store(tmp_path)
        one = EvalCache(8, store=store, context="ctx-one")
        one.put("module a; endmodule", self._success())
        other = EvalCache(8, store=store, context="ctx-two")
        assert other.get("module a; endmodule") is None

    def test_failed_entries_replay_on_both_tiers(self, tmp_path):
        from repro.core.backend import CandidateResult

        store = self._store(tmp_path)
        failed = CandidateResult(0.0, False, None)
        EvalCache(8, store=store, context="ctx").put("module bad; endmodule", failed)
        replay = EvalCache(8, store=store, context="ctx").get("module bad; endmodule")
        assert replay is not None
        assert replay.mismatch is None


class TestBackendIntegration:
    """A serial backend with cache_dir set survives a cold restart."""

    def test_serial_backend_restart_hits_disk(self, tmp_path, scenario):
        from repro.cache import PersistentEvalCache
        from repro.experiments.common import SMOKE

        PersistentEvalCache.reset_shared()
        config = dataclasses.replace(
            scenario.suggested_config(SMOKE), cache_dir=str(tmp_path / "c")
        )
        text = scenario.faulty_design_text
        first = SerialBackend.for_problem(scenario.problem(), config)
        first.evaluate_batch([text])
        assert first.cache.info()["store_hits"] == 0
        # "Restart": new backend instance, same persistent directory.
        second = SerialBackend.for_problem(scenario.problem(), config)
        second.evaluate_batch([text])
        info = second.cache.info()
        assert info["store_hits"] == 1
        PersistentEvalCache.reset_shared()

    def test_entries_replay_across_backends(self, tmp_path, scenario):
        """An entry one backend publishes is a hit for the other backend,
        both ways, and replays the result that backend would compute."""
        from repro.cache import PersistentEvalCache
        from repro.experiments.common import SMOKE

        PersistentEvalCache.reset_shared()
        config = dataclasses.replace(
            scenario.suggested_config(SMOKE), cache_dir=str(tmp_path / "c")
        )
        problem = scenario.problem()
        faulty = scenario.faulty_design_text
        golden = scenario.project.design_text
        with ProcessPoolBackend.for_problem(problem, config, workers=1) as pool:
            (pooled,) = pool.evaluate_batch([faulty])
        with SerialBackend.for_problem(problem, config) as serial:
            replayed, computed = serial.evaluate_batch([faulty, golden])
            assert serial.cache.info()["store_hits"] == 1
        assert replayed == pooled
        with ProcessPoolBackend.for_problem(problem, config, workers=1) as pool:
            (replayed,) = pool.evaluate_batch([golden])
            assert pool.cache.info()["store_hits"] == 1
        assert replayed == computed
        PersistentEvalCache.reset_shared()

    def test_warm_resubmission_simulates_nothing(self, tmp_path, count_simulations):
        """The same request run twice against one cache directory: every
        evaluation of the second run — the unpatched design, each
        candidate, each minimization subset — replays from the cache, so
        it simulates nothing and ends where the first run ended."""
        from repro.api import run_request
        from repro.cache import PersistentEvalCache
        from repro.service.jobs import RepairRequest

        PersistentEvalCache.reset_shared()
        request = RepairRequest(
            scenario="counter_reset",
            seeds=(0,),
            config={
                "population_size": 16,
                "max_generations": 2,
                "max_fitness_evals": 32,
                "minimize_budget": 8,
                "max_wall_seconds": 1e6,
            },
        )
        base = RepairConfig(cache_dir=str(tmp_path / "c"))
        cold = run_request(request, base)
        runs = count_simulations()
        warm = run_request(request, base)
        PersistentEvalCache.reset_shared()
        assert runs == []
        assert (warm.plausible, warm.fitness, warm.eval_sims, warm.repaired_source) == (
            cold.plausible, cold.fitness, cold.eval_sims, cold.repaired_source
        )
