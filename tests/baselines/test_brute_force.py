"""Brute-force baseline tests."""

import multiprocessing

from repro.baselines import BruteForceRepair
from repro.benchsuite import load_scenario
from repro.core.config import RepairConfig


def tiny_config():
    return RepairConfig(
        max_wall_seconds=15.0,
        max_fitness_evals=120,
        max_sim_time=5_000,
        max_sim_steps=30_000,
    )


class TestBruteForce:
    def test_respects_budget(self):
        scenario = load_scenario("ff_cond")
        brute = BruteForceRepair(scenario.problem(), tiny_config(), seed=0)
        outcome = brute.run()
        assert outcome.simulations <= 120
        assert outcome.candidates_tried > 0

    def test_tracks_best_fitness(self):
        scenario = load_scenario("ff_cond")
        outcome = BruteForceRepair(scenario.problem(), tiny_config(), seed=1).run()
        assert 0.0 <= outcome.fitness <= 1.0

    def test_deterministic_per_seed(self):
        scenario = load_scenario("ff_cond")
        out1 = BruteForceRepair(scenario.problem(), tiny_config(), seed=3).run()
        out2 = BruteForceRepair(scenario.problem(), tiny_config(), seed=3).run()
        assert out1.plausible == out2.plausible
        assert out1.candidates_tried == out2.candidates_tried

    def test_does_not_repair_what_cirfix_does(self):
        """The §5.1 shape: under a budget where CirFix succeeds, uniform
        search fails (it has the whole AST × AST edit space to wander)."""
        from repro.core.repair import CirFixEngine
        from repro.experiments.common import SMOKE

        scenario = load_scenario("counter_sens")
        config = scenario.suggested_config(SMOKE)
        cirfix = CirFixEngine(scenario.problem(), config, seed=0).run()
        brute = BruteForceRepair(scenario.problem(), config, seed=0).run()
        assert cirfix.plausible
        assert not brute.plausible

    def test_pool_run_matches_serial_and_closes_its_pool(self, count_simulations):
        """At ``workers=2`` every candidate is scored on the pool, no
        worker outlives ``run()``, and the outcome is the serial one."""
        scenario = load_scenario("ff_cond")
        # Bounded by max_fitness_evals alone, so both runs see the same
        # candidates whatever the host speed.
        config = tiny_config().scaled(max_wall_seconds=1e6)
        serial = BruteForceRepair(scenario.problem(), config, seed=0).run()

        before = set(multiprocessing.active_children())
        runs = count_simulations()
        # Keep a reference: the pool must be closed by run() itself, not
        # by garbage collection.
        brute = BruteForceRepair(
            scenario.problem(), config.scaled(workers=2, backend="process"), seed=0
        )
        pooled = brute.run()
        assert set(multiprocessing.active_children()) <= before
        assert runs == [], "the pool run simulated in this process"
        assert (
            pooled.plausible, pooled.patch.describe(), pooled.fitness,
            pooled.simulations,
        ) == (
            serial.plausible, serial.patch.describe(), serial.fitness,
            serial.simulations,
        )
