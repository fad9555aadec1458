"""The one trial loop: ``repro.core.harness.run_trials``.

Every runner and multi-seed experiment driver runs its trials through
this loop, on one shared backend.  These tests pin what that sharing
relies on (a trial on the shared backend returns the outcome it would
have on a backend of its own), the loop's stop rules and backend
ownership, and its one input error: an empty seed list.
"""

import json
from types import SimpleNamespace

import pytest

import repro.core.harness as harness_mod
from repro.benchsuite import load_scenario
from repro.core.backend import SerialBackend, make_backend
from repro.core.config import RepairConfig
from repro.core.harness import best_outcome, run_trials
from repro.core.repair import CirFixEngine, repair
from repro.core.serialize import outcome_to_json
from repro.experiments.common import run_scenario
from repro.synth import race_repair, synth_repair

#: Small and bounded by evaluations, not wall-clock, so outcomes are
#: exact.  On ff_cond, seed 0 fails and seed 1 repairs under it.
BUDGET = RepairConfig(
    population_size=16,
    max_generations=2,
    max_wall_seconds=1e6,
    max_fitness_evals=32,
    minimize_budget=8,
)


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("ff_cond")


@pytest.fixture(scope="module")
def config(scenario):
    return scenario.suggested_config(BUDGET)


def _without_wall_clock(outcome):
    """The outcome report minus its one wall-clock field."""
    report = json.loads(outcome_to_json(outcome, "ff_cond"))
    report.pop("elapsed_seconds")
    return report


class _ClosingSpy(SerialBackend):
    """A serial backend that counts ``close()`` calls."""

    closes = 0

    def close(self) -> None:
        self.closes += 1


class TestSharedBackend:
    def test_trials_match_trials_on_their_own_backends(self, scenario, config):
        problem = scenario.problem()
        with make_backend(problem, config) as backend:
            outcomes = run_trials(
                CirFixEngine, problem, config, (0, 1, 2), backend=backend
            )
            hits = backend.cache.info()["hits"]
        # The loop stops after the first plausible trial.
        assert [o.seed for o in outcomes] == [0, 1]
        assert [o.plausible for o in outcomes] == [False, True]
        for outcome in outcomes:
            fresh = CirFixEngine(problem, config, outcome.seed).run()
            assert _without_wall_clock(outcome) == _without_wall_clock(fresh)
        # The second trial replayed results the first one computed.
        assert hits > 0

    def test_caller_keeps_its_backend_open(self, scenario, config):
        problem = scenario.problem()
        spy = _ClosingSpy(problem.testbench, problem.oracle, config)
        run_trials(CirFixEngine, problem, config, (0,), backend=spy)
        assert spy.closes == 0

    def test_built_backend_is_closed_on_exit(self, scenario, config, monkeypatch):
        problem = scenario.problem()
        spy = _ClosingSpy(problem.testbench, problem.oracle, config)
        monkeypatch.setattr(harness_mod, "make_backend", lambda *args: spy)
        run_trials(CirFixEngine, problem, config, (0,))
        assert spy.closes == 1


class TestStopRules:
    def test_cancel_stops_between_trials(self, scenario, config):
        # Cancel once the first trial has completed: it ran to its end,
        # and no later seed starts.
        completed = []

        class Watch:
            def on_event(self, event):
                if event.type == "trial_completed":
                    completed.append(event)

        problem = scenario.problem()
        outcomes = run_trials(
            CirFixEngine, problem, config, (0, 1, 2),
            observers=[Watch()], cancel=lambda: bool(completed),
        )
        assert [o.seed for o in outcomes] == [0]
        uncancelled = CirFixEngine(problem, config, 0).run()
        assert _without_wall_clock(outcomes[0]) == _without_wall_clock(uncancelled)

    def test_best_outcome_is_the_earliest_best_fitness(self):
        outcomes = [SimpleNamespace(fitness=f) for f in (0.5, 0.7, 0.7)]
        assert best_outcome(outcomes) is outcomes[1]


class TestEmptySeeds:
    MESSAGE = "at least one seed is required"

    def test_run_trials(self, scenario, config):
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_trials(CirFixEngine, scenario.problem(), config, ())

    @pytest.mark.parametrize(
        "runner", [repair, synth_repair, race_repair], ids=["repair", "synth", "race"]
    )
    def test_runners(self, runner, scenario, config):
        with pytest.raises(ValueError, match=self.MESSAGE):
            runner(scenario.problem(), config, ())

    @pytest.mark.parametrize("engine", ["cirfix", "synth", "race"])
    def test_run_scenario(self, engine, scenario):
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_scenario(scenario, BUDGET, seeds=(), engine=engine)
