"""Benchmark: supervised evaluation overhead (repro.core.backend).

The supervised pool replaces PR 1's blocking ``pool.map`` with per-task
dispatch under deadlines, crash detection, and retry/quarantine.  That
supervision must be close to free on healthy workloads: this benchmark
scores the same fixed 24-candidate counter_reset batch through a raw
``multiprocessing.Pool`` baseline (``_pool_initializer`` /
``_pool_evaluate`` below) and through the supervised
``ProcessPoolBackend`` at workers ∈ {2, 4}, and writes the measured
overhead to ``BENCH_supervised_eval.json`` at the repo root (goal: ≤5%
mean overhead; the hard assertion is looser to absorb CI timing noise).

It also measures the recovery path — a batch with a planted hanging
mutant under a short deadline — and asserts a supervised SMOKE repair
run still matches the serial outcome bit-for-bit.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.benchsuite import load_scenario
from repro.core.backend import (
    ProcessPoolBackend,
    SerialBackend,
    _mp_context,
    evaluate_design_text,
)
from repro.core.repair import CirFixEngine
from repro.experiments.common import SMOKE
from repro.fuzz.faults import plant_eval_chaos
from repro.hdl import parse

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULTS: dict[str, object] = {"scenario": "counter_reset", "cpu_count": os.cpu_count()}
#: Timed repetitions per backend (median reported; absorbs scheduler noise).
_ROUNDS = 3


def _problem_and_config():
    scenario = load_scenario("counter_reset")
    return scenario.problem(), scenario.suggested_config(SMOKE)


def _candidate_batch(problem, size=24):
    """A fixed batch of distinct design texts (comment-tagged so no two
    are string-equal, matching how the engine's text cache sees mutants)."""
    from repro.hdl import generate

    base = generate(problem.design)
    return [f"{base}\n// candidate {i}\n" for i in range(size)]


#: Per-worker state of the unsupervised baseline pool.
_WORKER_STATE: dict[str, object] = {}


def _pool_initializer(testbench_text, oracle, config):
    """Worker-side init: parse the instrumented testbench and keep the oracle."""
    _WORKER_STATE["testbench"] = parse(testbench_text)
    _WORKER_STATE["oracle"] = oracle
    _WORKER_STATE["config"] = config


def _pool_evaluate(design_text):
    """Worker-side task: evaluate one candidate against the cached state."""
    return evaluate_design_text(
        design_text,
        _WORKER_STATE["testbench"],
        _WORKER_STATE["oracle"],
        _WORKER_STATE["config"],
    )


def _time_raw_pool(problem, config, texts, workers):
    """Median batch seconds through the unsupervised Pool.map baseline."""
    ctx = _mp_context()
    with ctx.Pool(
        processes=workers,
        initializer=_pool_initializer,
        initargs=(problem.testbench_text, problem.oracle, config),
    ) as pool:
        pool.map(_pool_evaluate, texts[:2], chunksize=1)  # warm the workers
        samples = []
        for _ in range(_ROUNDS):
            start = time.monotonic()
            results = pool.map(_pool_evaluate, texts, chunksize=1)
            samples.append(time.monotonic() - start)
    return statistics.median(samples), results


def _time_supervised(problem, config, texts, workers):
    """Median batch seconds through the supervised backend.

    Its result cache is off, as the raw baseline has none: otherwise
    every round after the first would replay cached results instead of
    scoring the batch on the pool.
    """
    config = config.scaled(eval_cache_size=0)
    with ProcessPoolBackend.for_problem(problem, config, workers=workers) as pool:
        pool.evaluate_batch(texts[:2])  # warm the workers
        samples = []
        for _ in range(_ROUNDS):
            start = time.monotonic()
            results = pool.evaluate_batch(texts)
            samples.append(time.monotonic() - start)
        assert pool.take_incidents() == []  # healthy run: supervision idle
    return statistics.median(samples), results


def test_supervision_overhead(once):
    problem, config = _problem_and_config()
    texts = _candidate_batch(problem)

    def sweep():
        rows = {}
        for workers in (2, 4):
            raw_s, raw_results = _time_raw_pool(problem, config, texts, workers)
            sup_s, sup_results = _time_supervised(problem, config, texts, workers)
            assert [r.fitness for r in sup_results] == [
                r.fitness for r in raw_results
            ]
            rows[f"workers={workers}"] = {
                "raw_pool_seconds": raw_s,
                "supervised_seconds": sup_s,
                "overhead_pct": (sup_s / raw_s - 1.0) * 100.0 if raw_s > 0 else 0.0,
            }
        return rows

    rows = once(sweep)
    _RESULTS["overhead"] = {
        "candidates": len(texts),
        "rounds_per_backend": _ROUNDS,
        "goal_overhead_pct": 5.0,
        **rows,
    }
    # The goal is ≤5%; assert with generous headroom so a noisy shared
    # host doesn't flake the suite (the JSON records the honest number).
    for row in rows.values():
        assert row["overhead_pct"] <= 25.0, rows


def test_recovery_path_cost(once):
    """One hanging mutant under a 0.5 s deadline: the batch completes in
    roughly deadline + normal batch time, not forever."""
    problem, config = _problem_and_config()
    config = config.scaled(eval_deadline_seconds=0.5, eval_max_retries=0)
    texts = _candidate_batch(problem, size=8)

    def poisoned():
        with plant_eval_chaos("hang@2"):
            with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
                start = time.monotonic()
                results = pool.evaluate_batch(texts)
                return time.monotonic() - start, results

    seconds, results = once(poisoned)
    quarantined = [r for r in results if r.failure is not None]
    assert len(quarantined) == 1
    assert quarantined[0].failure.kind == "timeout"
    assert sum(1 for r in results if r.compiled) == len(texts) - 1
    _RESULTS["recovery"] = {
        "candidates": len(texts),
        "deadline_seconds": 0.5,
        "batch_seconds_with_hang": seconds,
        "quarantined": len(quarantined),
    }


def test_supervised_repair_matches_serial(once):
    problem, config = _problem_and_config()

    def compare():
        with SerialBackend.for_problem(problem, config) as serial:
            serial_outcome = CirFixEngine(
                problem, config, seed=0, backend=serial
            ).run()
        with ProcessPoolBackend.for_problem(problem, config, workers=2) as pool:
            pool_outcome = CirFixEngine(problem, config, seed=0, backend=pool).run()
        return serial_outcome, pool_outcome

    serial_outcome, pool_outcome = once(compare)
    assert serial_outcome.plausible == pool_outcome.plausible
    assert serial_outcome.fitness == pool_outcome.fitness
    assert serial_outcome.best_fitness_history == pool_outcome.best_fitness_history
    assert serial_outcome.patch.describe() == pool_outcome.patch.describe()
    assert pool_outcome.quarantined == 0
    _RESULTS["parity"] = {
        "plausible": serial_outcome.plausible,
        "fitness": serial_outcome.fitness,
    }
    (_REPO_ROOT / "BENCH_supervised_eval.json").write_text(
        json.dumps(_RESULTS, indent=2) + "\n"
    )
