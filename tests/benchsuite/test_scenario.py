"""Scenario machinery tests (defect transplantation, config scaling,
correctness checking)."""

import uuid

import pytest

from repro.benchsuite import DEFECTS, PROJECT_NAMES, load_scenario
from repro.benchsuite.scenario import Defect, Scenario
from repro.core.config import RepairConfig
from repro.core.oracle import combine_sources, ensure_instrumented
from repro.hdl import parse
from repro.sim.simulator import Simulator


class TestDefectApply:
    def test_replacement_applied_once(self):
        defect = Defect("t", "p", "d", 1, (("aaa", "bbb"),))
        assert defect.apply("aaa aaa") == "bbb aaa"

    def test_missing_pattern_raises(self):
        defect = Defect("t", "p", "d", 1, (("zzz", "y"),))
        with pytest.raises(ValueError):
            defect.apply("aaa")

    def test_noop_defect_rejected(self):
        defect = Defect("t", "p", "d", 1, (("a", "a"),))
        with pytest.raises(ValueError):
            defect.apply("aaa")


class TestScenario:
    def test_problem_is_cached(self):
        scenario = load_scenario("ff_cond")
        assert scenario.problem() is scenario.problem()

    def test_oracle_shared_across_scenarios_of_project(self):
        first = load_scenario("counter_sens")
        second = load_scenario("counter_reset")
        assert first.oracle().times() == second.oracle().times()

    def test_suggested_config_scales_bounds(self):
        base = RepairConfig()
        for project in PROJECT_NAMES:
            defect = next(d for d in DEFECTS if d.project == project)
            scenario = load_scenario(defect.scenario_id)
            scaled = scenario.suggested_config(base)
            end_time = scenario.oracle().times()[-1]
            assert scaled.max_sim_time >= end_time
            assert scaled.max_sim_steps >= 20_000
            # The step budget is 30x the golden run's own statement count.
            golden = parse(scenario.project.design_text)
            bench = ensure_instrumented(parse(scenario.project.testbench_text), golden)
            steps = Simulator(combine_sources(golden, bench)).run(1_000_000).steps_used
            assert scaled.max_sim_steps == max(30 * steps, 20_000), project
            # Other fields untouched.
            assert scaled.population_size == base.population_size

    def test_one_golden_simulation_builds_oracle_and_budget(self, count_simulations):
        # A fresh project name keeps the process-wide golden-run cache cold.
        counter = load_scenario("counter_reset")
        scenario = Scenario.from_texts(
            "golden_run_probe",
            golden_text=counter.project.design_text,
            testbench_text=counter.project.testbench_text,
            faulty_text=counter.faulty_design_text,
            project_name=f"probe_{uuid.uuid4().hex}",
        )
        runs = count_simulations()
        oracle = scenario.oracle()
        scenario.suggested_config(RepairConfig())
        assert runs == ["Simulator"]
        assert scenario.oracle() is oracle

    def test_is_correct_repair_accepts_golden(self):
        scenario = load_scenario("ff_cond")
        assert scenario.is_correct_repair(scenario.project.design_text)

    def test_is_correct_repair_rejects_garbage(self):
        scenario = load_scenario("ff_cond")
        assert not scenario.is_correct_repair("module tff; endmodule")

    def test_faulty_fitness_uses_phi(self):
        scenario = load_scenario("counter_reset")
        # The counter defect's signature is x output, so phi matters.
        assert scenario.faulty_fitness(phi=1.0) != scenario.faulty_fitness(phi=3.0)
