"""End-to-end telemetry guarantees on a real repair run.

Three pinned properties (ISSUE acceptance criteria):

1. attaching observers never changes the search — a fixed-seed repair
   yields a bit-identical ``RepairOutcome`` with and without observers,
   on both backends;
2. the event-type sequence of a fixed-seed run is byte-stable across
   backends and across time (golden file);
3. ``MetricsObserver`` totals agree with the engine's own counters.
"""

from pathlib import Path

import pytest

from repro.benchsuite import load_scenario
from repro.core.backend import make_backend
from repro.core.repair import CirFixEngine
from repro.obs.metrics import MetricsObserver
from repro.obs.observer import RecordingObserver

GOLDEN = Path(__file__).parent / "golden" / "dec_numeric_event_types.txt"

#: Small fixed budget: enough to cover seed population, one evolved
#: generation, chunked backend dispatch, and (usually) a repair.
SCENARIO_ID = "dec_numeric"
SEED = 0


def _scaled(workers=1, backend="serial"):
    from repro.core.config import RepairConfig

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
        )
    )
    return scenario, config


def _run(workers=1, backend="serial", observers=None):
    scenario, config = _scaled(workers, backend)
    problem = scenario.problem()
    eval_backend = make_backend(problem, config)
    try:
        return CirFixEngine(
            problem, config, SEED, backend=eval_backend, observers=observers
        ).run()
    finally:
        eval_backend.close()


def _outcome_key(outcome):
    """Every outcome field except wall-clock."""
    return (
        outcome.plausible,
        outcome.fitness,
        outcome.generations,
        outcome.fitness_evals,
        outcome.eval_sims,
        outcome.simulations,
        outcome.seed,
        tuple(outcome.best_fitness_history),
        len(outcome.patch),
        outcome.repaired_source,
    )


class TestObserversDoNotPerturbTheSearch:
    def test_serial_backend(self):
        bare = _run()
        observed = _run(observers=[RecordingObserver(), MetricsObserver()])
        assert _outcome_key(bare) == _outcome_key(observed)

    def test_process_backend(self):
        bare = _run(workers=2, backend="process")
        observed = _run(
            workers=2, backend="process",
            observers=[RecordingObserver(), MetricsObserver()],
        )
        assert _outcome_key(bare) == _outcome_key(observed)


class TestEventSequenceDeterminism:
    def test_cross_backend_and_golden(self):
        serial = RecordingObserver()
        pool = RecordingObserver()
        _run(observers=[serial])
        _run(workers=2, backend="process", observers=[pool])
        serial_types = serial.types()
        assert serial_types, "serial run emitted no events"
        # Byte-stable across backends: the pool run emits the same event
        # types in the same order (only wall-clock field values differ).
        assert serial_types == pool.types()
        # And across time: pinned by the committed golden file.
        assert "\n".join(serial_types) + "\n" == GOLDEN.read_text()

    def test_sequence_shape(self):
        recording = RecordingObserver()
        _run(observers=[recording])
        types = recording.types()
        assert types[0] == "trial_started"
        assert types[-1] == "trial_completed"
        # The four phase events come right before trial_completed, in order.
        phases = [e.phase for e in recording.events if e.type == "phase_completed"]
        assert phases == ["parse", "localization", "evaluation", "minimization"]
        assert types[-5:-1] == ["phase_completed"] * 4
        # Chunks balance.
        assert types.count("backend_chunk_dispatched") == types.count(
            "backend_chunk_completed"
        )


class TestMetricsMatchEngineCounters:
    @pytest.mark.parametrize(
        "workers,backend", [(1, "serial"), (2, "process")],
        ids=["serial", "process"],
    )
    def test_totals(self, workers, backend):
        metrics = MetricsObserver()
        outcome = _run(workers=workers, backend=backend, observers=[metrics])
        # Every simulation is a unique evaluation, on every backend.
        assert outcome.simulations == outcome.eval_sims
        # One CandidateEvaluated per unique evaluation, by construction.
        assert metrics.candidates == outcome.eval_sims
        # TrialCompleted mirrors the outcome counters.
        assert metrics.eval_sims == outcome.eval_sims
        assert metrics.fitness_evals == outcome.fitness_evals
        assert metrics.simulations == outcome.simulations
        assert metrics.generations == outcome.generations
        assert metrics.plausible_trials == int(outcome.plausible)
        assert metrics.best_fitness == pytest.approx(outcome.fitness)
        # Phase timing covers all four phases and is non-negative.
        assert set(metrics.phase_seconds) == {
            "parse", "localization", "evaluation", "minimization"
        }
        assert all(v >= 0.0 for v in metrics.phase_seconds.values())


class TestPlausibleRepairTelemetry:
    def test_plausible_patch_event_emitted(self):
        """A run that finds a repair emits plausible_patch_found before
        the phase/trial tail, and the metrics see the repair."""
        from repro.experiments.common import SMOKE

        scenario = load_scenario("counter_reset")
        config = scenario.suggested_config(SMOKE)
        problem = scenario.problem()
        recording, metrics = RecordingObserver(), MetricsObserver()
        backend = make_backend(problem, config)
        try:
            outcome = CirFixEngine(
                problem, config, 0, backend=backend,
                observers=[recording, metrics],
            ).run()
        finally:
            backend.close()
        assert outcome.plausible
        types = recording.types()
        assert "plausible_patch_found" in types
        assert types.index("plausible_patch_found") < types.index("phase_completed")
        assert metrics.plausible_found == 1
        assert metrics.plausible_trials == 1
        assert metrics.best_fitness == 1.0
        assert metrics.candidates == outcome.eval_sims
