"""Benchmark: the compiled-simulation fast path (repro.sim.compile).

Measures single-worker candidate-evaluation throughput on the
counter_reset scenario across the engine/cache matrix and writes the raw
numbers to ``BENCH_compiled_sim.json`` at the repo root:

1. a 24-candidate batch through ``SerialBackend`` on the compiled
   simulator and, as the baseline, on the reference interpreter
   substituted in its place (:func:`_interpreter`), each timed round
   scoring its own comment-tagged texts so that no round replays a
   result an earlier one recorded — the honest per-candidate speedup
   (every candidate still pays parse + fitness, which the compiled
   engine cannot remove);
2. a batch replayed against a warm :class:`EvalCache` — the cross-trial
   workload the cache exists for (multi-seed experiments share one
   backend and re-score the seed design plus common early mutants); the
   headline ≥5× target is asserted here;
3. compile-time amortization: cold-compile vs warm-template simulator
   construction+run, against the interpreter baseline;
4. a SMOKE repair on the compiled engine across two seeds sharing one
   backend, recording the cache hit rate the second trial enjoys and
   asserting the seed-0 outcome is bit-identical to the interpreter's.
"""

import contextlib
import json
import os
import time
from pathlib import Path

import pytest

from repro.benchsuite import load_scenario
from repro.core import backend as backend_mod
from repro.core.backend import SerialBackend
from repro.core.repair import CirFixEngine
from repro.experiments.common import SMOKE
from repro.hdl import generate, parse
from repro.sim import CompiledSimulator, Simulator

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULTS: dict[str, object] = {"scenario": "counter_reset", "cpu_count": os.cpu_count()}

#: The headline target: warm-cache candidate evaluation vs the
#: interpreter with no cache.
_TARGET_SPEEDUP = 5.0


def _scenario_problem_config():
    scenario = load_scenario("counter_reset")
    return scenario, scenario.problem(), scenario.suggested_config(SMOKE)


@contextlib.contextmanager
def _interpreter():
    """Evaluate candidates on the reference interpreter: it stands in for
    the compiled simulator (whose shared-template arguments it ignores)."""

    def interpreter(source, max_steps, **_template_cache):
        return Simulator(source, max_steps=max_steps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend_mod, "CompiledSimulator", interpreter)
        yield


def _candidate_batch(problem, size=24, tag="round"):
    """A batch of distinct design texts (comment-tagged so no two are
    string-equal, matching how the engine's text cache sees mutants).
    Batches with different tags share no text, so a backend that
    scores one never replays it for another."""
    base = generate(problem.design)
    return [f"{base}\n// {tag} candidate {i}\n" for i in range(size)]


def test_candidate_eval_throughput(once):
    _, problem, config = _scenario_problem_config()
    texts = _candidate_batch(problem)

    def sweep():
        timings: dict[str, float] = {}
        serial = SerialBackend(problem, config)
        with _interpreter():
            start = time.monotonic()
            baseline = serial.evaluate_batch(texts)
            timings["interp"] = time.monotonic() - start

        # A fresh backend compiles its testbench templates: a cold start.
        compiled = SerialBackend(problem, config)
        start = time.monotonic()
        cold = compiled.evaluate_batch(texts)
        timings["compiled_cold"] = time.monotonic() - start
        # New texts, so the warm round scores every candidate again.
        warm_texts = _candidate_batch(problem, tag="warm")
        start = time.monotonic()
        warm = compiled.evaluate_batch(warm_texts)
        timings["compiled_warm"] = time.monotonic() - start

        cached = SerialBackend(problem, config)
        cached.evaluate_batch(texts)  # populate the cache
        start = time.monotonic()
        replay = cached.evaluate_batch(texts)
        timings["compiled_cache_hit"] = time.monotonic() - start
        cache_info = cached.cache.info()
        return timings, baseline, cold, warm, replay, cache_info

    timings, baseline, cold, warm, replay, cache_info = once(sweep)

    # Parity: every path scores the batch identically.
    fitnesses = [r.fitness for r in baseline]
    for results in (cold, warm, replay):
        assert [r.fitness for r in results] == fitnesses
    assert all(r.compiled for r in baseline)
    assert cache_info["hits"] == len(texts)

    throughput = {
        key: len(texts) / seconds for key, seconds in timings.items() if seconds > 0
    }
    speedup_nocache = throughput["compiled_warm"] / throughput["interp"]
    speedup_cached = throughput["compiled_cache_hit"] / throughput["interp"]
    _RESULTS["batch"] = {
        "candidates": len(texts),
        "seconds": timings,
        "throughput_per_s": throughput,
        "speedup_compiled_no_cache": speedup_nocache,
        "speedup_warm_cache": speedup_cached,
        "cache": cache_info,
    }
    # The compiled engine must win outright even with the cache off
    # (every candidate still pays its unavoidable parse + fitness)...
    assert speedup_nocache > 1.2, (
        f"compiled engine slower than expected: {speedup_nocache:.2f}x"
    )
    # ...and the cross-trial cached workload carries the headline target.
    assert speedup_cached >= _TARGET_SPEEDUP, (
        f"warm-cache speedup {speedup_cached:.2f}x < {_TARGET_SPEEDUP}x"
    )


def test_compile_time_amortization(once):
    scenario, _, _ = _scenario_problem_config()
    combined = parse(
        scenario.faulty_design_text + "\n" + scenario.project.testbench_text
    )
    runs = 30

    def sweep():
        start = time.monotonic()
        Simulator(combined).run(1_000_000)
        interp_first = time.monotonic() - start
        start = time.monotonic()
        for _ in range(runs):
            Simulator(combined).run(1_000_000)
        interp_steady = (time.monotonic() - start) / runs

        shared: dict = {}
        ids = frozenset(id(m) for m in combined.modules)
        start = time.monotonic()
        CompiledSimulator(combined, shared_cache=shared, shared_module_ids=ids).run(
            1_000_000
        )
        cold = time.monotonic() - start
        start = time.monotonic()
        for _ in range(runs):
            CompiledSimulator(
                combined, shared_cache=shared, shared_module_ids=ids
            ).run(1_000_000)
        steady = (time.monotonic() - start) / runs
        return interp_first, interp_steady, cold, steady

    interp_first, interp_steady, cold, steady = once(sweep)
    _RESULTS["amortization"] = {
        "runs": runs,
        "interp_first_seconds": interp_first,
        "interp_steady_seconds": interp_steady,
        "compiled_cold_seconds": cold,
        "compiled_steady_seconds": steady,
        "compile_overhead_seconds": max(0.0, cold - steady),
        "raw_sim_speedup": interp_steady / steady if steady > 0 else float("inf"),
    }
    assert steady < interp_steady, "compiled steady-state should beat interp"


def test_smoke_repair_cache_hit_rate(once):
    """Two seeds sharing one compiled backend; outcome parity vs interp."""
    _, problem, config = _scenario_problem_config()

    def run(backend, seed):
        start = time.monotonic()
        outcome = CirFixEngine(problem, config, seed, backend=backend).run()
        return outcome, time.monotonic() - start

    def sweep():
        serial = SerialBackend(problem, config)
        with _interpreter():
            interp_outcome, interp_s = run(serial, 0)

        shared = SerialBackend(problem, config)
        compiled_outcome, compiled_s = run(shared, 0)
        after_first = dict(shared.cache.info())
        _, second_s = run(shared, 1)
        after_second = shared.cache.info()
        return (
            interp_outcome, interp_s,
            compiled_outcome, compiled_s, second_s,
            after_first, after_second,
        )

    (
        interp_outcome, interp_s,
        compiled_outcome, compiled_s, second_s,
        after_first, after_second,
    ) = once(sweep)

    # Engine parity on the full outcome surface.
    assert compiled_outcome.plausible == interp_outcome.plausible
    assert compiled_outcome.fitness == interp_outcome.fitness
    assert compiled_outcome.eval_sims == interp_outcome.eval_sims
    assert (
        compiled_outcome.best_fitness_history == interp_outcome.best_fitness_history
    )
    assert repr(compiled_outcome.patch) == repr(interp_outcome.patch)
    assert interp_outcome.plausible, "counter_reset should repair under SMOKE"

    second_trial_hits = after_second["hits"] - after_first["hits"]
    second_trial_misses = after_second["misses"] - after_first["misses"]
    lookups = second_trial_hits + second_trial_misses
    _RESULTS["smoke_repair"] = {
        "interp_seconds": interp_s,
        "compiled_seconds": compiled_s,
        "compiled_speedup": interp_s / compiled_s if compiled_s > 0 else float("inf"),
        "second_seed_seconds": second_s,
        "cache_after_seed0": after_first,
        "cache_after_seed1": dict(after_second),
        "second_trial_hit_rate": second_trial_hits / lookups if lookups else 0.0,
    }
    # The first trial cannot hit (the engine memoises within a trial);
    # the second trial replays the seed design and early mutants from the
    # cache, since every candidate, the seed design included, is scored
    # through the backend.
    assert after_first["hits"] == 0
    assert second_trial_hits > 0, "second seed saw no cross-trial repeats"

    (_REPO_ROOT / "BENCH_compiled_sim.json").write_text(
        json.dumps(_RESULTS, indent=2) + "\n"
    )
