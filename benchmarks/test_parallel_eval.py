"""Benchmark: parallel candidate evaluation (repro.core.backend).

Measures two things on the counter_reset scenario and writes the raw
numbers to ``BENCH_parallel_eval.json`` at the repo root:

1. batch throughput — one fixed 24-candidate batch scored by
   ``SerialBackend`` and by ``ProcessPoolBackend`` at workers ∈ {2, 4};
2. a 4-generation SMOKE repair run serially vs. on a 4-worker pool,
   asserting the outcomes are bit-identical (plausible flag, fitness,
   best-fitness history, and patch).

Speedup depends entirely on the host: on a single-core container the
pool can only add IPC overhead, so the ≥2× speedup assertion is gated on
``os.cpu_count() >= 4`` and the JSON records the core count alongside
the timings.
"""

import json
import os
import time
from pathlib import Path

from repro.benchsuite import load_scenario
from repro.core.backend import ProcessPoolBackend, SerialBackend
from repro.core.repair import CirFixEngine
from repro.experiments.common import SMOKE

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULTS: dict[str, object] = {"scenario": "counter_reset", "cpu_count": os.cpu_count()}


def _problem_and_config():
    scenario = load_scenario("counter_reset")
    return scenario.problem(), scenario.suggested_config(SMOKE)


def _candidate_batch(problem, size=24):
    """A fixed batch of distinct design texts (comment-tagged so no two
    are string-equal, matching how the engine's text cache sees mutants)."""
    from repro.hdl import generate

    base = generate(problem.design)
    return [f"{base}\n// candidate {i}\n" for i in range(size)]


def test_batch_throughput(once):
    problem, config = _problem_and_config()
    texts = _candidate_batch(problem)

    def sweep():
        timings = {}
        serial = SerialBackend(problem, config)
        start = time.monotonic()
        baseline = serial.evaluate_batch(texts)
        timings["workers=1"] = time.monotonic() - start
        serial.close()
        for workers in (2, 4):
            pool = ProcessPoolBackend(problem, config, workers=workers)
            try:
                pool.evaluate_batch(texts[:2])  # warm the workers
                start = time.monotonic()
                results = pool.evaluate_batch(texts)
                timings[f"workers={workers}"] = time.monotonic() - start
            finally:
                pool.close()
            assert [r.fitness for r in results] == [r.fitness for r in baseline]
        return timings, baseline

    timings, baseline = once(sweep)
    assert all(r.compiled for r in baseline)
    _RESULTS["batch"] = {
        "candidates": len(texts),
        "seconds": timings,
        "throughput_per_s": {
            k: len(texts) / v for k, v in timings.items() if v > 0
        },
    }


def test_smoke_repair_speedup(once):
    problem, config = _problem_and_config()

    def run(backend):
        start = time.monotonic()
        outcome = CirFixEngine(problem, config, seed=0, backend=backend).run()
        return outcome, time.monotonic() - start

    def compare():
        serial_outcome, serial_s = run(None)
        pool = ProcessPoolBackend(problem, config, workers=4)
        try:
            pool_outcome, pool_s = run(pool)
        finally:
            pool.close()
        return serial_outcome, serial_s, pool_outcome, pool_s

    serial_outcome, serial_s, pool_outcome, pool_s = once(compare)

    # The parallel backend must be invisible to the search.
    assert serial_outcome.plausible == pool_outcome.plausible
    assert serial_outcome.fitness == pool_outcome.fitness
    assert serial_outcome.best_fitness_history == pool_outcome.best_fitness_history
    assert serial_outcome.patch.describe() == pool_outcome.patch.describe()
    assert serial_outcome.plausible, "counter_reset should repair under SMOKE"

    speedup = serial_s / pool_s if pool_s > 0 else float("inf")
    _RESULTS["smoke_repair"] = {
        "generations": config.max_generations,
        "serial_seconds": serial_s,
        "pool4_seconds": pool_s,
        "speedup": speedup,
        "plausible": serial_outcome.plausible,
        "fitness": serial_outcome.fitness,
    }
    (_REPO_ROOT / "BENCH_parallel_eval.json").write_text(
        json.dumps(_RESULTS, indent=2) + "\n"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, f"expected >=2x on >=4 cores, got {speedup:.2f}x"
