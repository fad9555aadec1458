"""Fitness function tests (paper §3.2), including property-based bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.benchsuite import load_scenario
from repro.benchsuite.scenario import simulate_design_text
from repro.core.fitness import evaluate_fitness, fitness_score
from repro.instrument.trace import SimulationTrace
from repro.sim.logic import Value

from . import reference_fitness as reference


def trace(rows):
    return SimulationTrace(
        [(t, {k: Value.from_string(v) for k, v in values.items()}) for t, values in rows]
    )


class TestScoring:
    def test_perfect_match_is_one(self):
        oracle = trace([(0, {"a": "1010"}), (10, {"a": "1111"})])
        assert fitness_score(oracle, oracle) == 1.0

    def test_total_mismatch_is_zero(self):
        oracle = trace([(0, {"a": "1111"})])
        actual = trace([(0, {"a": "0000"})])
        assert fitness_score(actual, oracle) == 0.0

    def test_half_bits_wrong(self):
        oracle = trace([(0, {"a": "1100"})])
        actual = trace([(0, {"a": "1111"})])
        # sum = 2 - 2 = 0, total = 4 → 0.
        assert fitness_score(actual, oracle) == 0.0

    def test_one_bit_wrong_of_four(self):
        oracle = trace([(0, {"a": "1100"})])
        actual = trace([(0, {"a": "1101"})])
        # sum = 3 - 1 = 2, total = 4.
        assert fitness_score(actual, oracle) == 0.5

    def test_xx_match_rewards_phi(self):
        oracle = trace([(0, {"a": "x1"})])
        actual = trace([(0, {"a": "x1"})])
        breakdown = evaluate_fitness(actual, oracle, phi=2.0)
        assert breakdown.raw_sum == 3.0  # φ + 1
        assert breakdown.total == 3.0
        assert breakdown.fitness == 1.0

    def test_x_mismatch_costs_phi(self):
        oracle = trace([(0, {"a": "01"})])
        actual = trace([(0, {"a": "x1"})])
        breakdown = evaluate_fitness(actual, oracle, phi=2.0)
        # bit1: (0,x) → -φ with weight φ; bit0: (1,1) → +1.
        assert breakdown.raw_sum == -1.0
        assert breakdown.total == 3.0
        assert breakdown.fitness == 0.0  # clamped at 0

    def test_zz_match(self):
        oracle = trace([(0, {"a": "z"})])
        actual = trace([(0, {"a": "z"})])
        assert fitness_score(actual, oracle) == 1.0

    def test_xz_pair_is_mismatch(self):
        oracle = trace([(0, {"a": "x"})])
        actual = trace([(0, {"a": "z"})])
        assert fitness_score(actual, oracle) == 0.0

    def test_missing_timestamp_scored_as_all_x(self):
        oracle = trace([(0, {"a": "11"}), (10, {"a": "11"})])
        actual = trace([(0, {"a": "11"})])
        breakdown = evaluate_fitness(actual, oracle, phi=2.0)
        # t=0: +2; t=10: two (1,x) pairs → -4 with weight 4.
        assert breakdown.raw_sum == -2.0
        assert breakdown.total == 6.0

    def test_missing_var_scored_as_x(self):
        oracle = trace([(0, {"a": "1", "b": "0"})])
        actual = trace([(0, {"a": "1"})])
        assert evaluate_fitness(actual, oracle).mismatches == 1

    def test_oracle_defines_the_timestamps(self):
        # Extra rows in the candidate trace are ignored.
        oracle = trace([(0, {"a": "1"})])
        actual = trace([(0, {"a": "1"}), (10, {"a": "0"}), (20, {"a": "x"})])
        assert fitness_score(actual, oracle) == 1.0

    def test_empty_oracle_gives_zero(self):
        oracle = SimulationTrace()
        actual = trace([(0, {"a": "1"})])
        assert fitness_score(actual, oracle) == 0.0

    def test_width_resize_before_compare(self):
        oracle = trace([(0, {"a": "0001"})])
        actual = SimulationTrace([(0, {"a": Value.from_int(1, 1)})])
        assert fitness_score(actual, oracle) == 1.0


class TestPhiWeight:
    def test_phi_increases_x_penalty(self):
        oracle = trace([(0, {"a": "0000"})])
        actual = trace([(0, {"a": "xx00"})])
        low = evaluate_fitness(actual, oracle, phi=1.0)
        high = evaluate_fitness(actual, oracle, phi=3.0)
        assert high.fitness <= low.fitness

    def test_phi_one_equates_x_and_wrong_bit(self):
        oracle = trace([(0, {"a": "00"})])
        x_actual = trace([(0, {"a": "x0"})])
        wrong_actual = trace([(0, {"a": "10"})])
        assert fitness_score(x_actual, oracle, phi=1.0) == fitness_score(
            wrong_actual, oracle, phi=1.0
        )


class TestProperties:
    values = st.text(alphabet="01xz", min_size=1, max_size=8)

    @given(st.lists(st.tuples(values, values), min_size=1, max_size=10))
    def test_fitness_bounded(self, pairs):
        oracle = trace([(i, {"a": exp}) for i, (exp, _) in enumerate(pairs)])
        actual = SimulationTrace(
            [
                (i, {"a": Value.from_string(act).resized(len(exp))})
                for i, (exp, act) in enumerate(pairs)
            ]
        )
        score = fitness_score(actual, oracle)
        assert 0.0 <= score <= 1.0

    @given(st.lists(values, min_size=1, max_size=10))
    def test_self_comparison_is_always_one(self, bits):
        oracle = trace([(i, {"a": b}) for i, b in enumerate(bits)])
        assert fitness_score(oracle, oracle) == 1.0

    @given(st.lists(st.tuples(values, values), min_size=1, max_size=6))
    def test_breakdown_totals_consistent(self, pairs):
        oracle = trace([(i, {"a": exp}) for i, (exp, _) in enumerate(pairs)])
        actual = SimulationTrace(
            [
                (i, {"a": Value.from_string(act).resized(len(exp))})
                for i, (exp, act) in enumerate(pairs)
            ]
        )
        b = evaluate_fitness(actual, oracle)
        assert b.matches + b.mismatches == sum(len(exp) for exp, _ in pairs)
        assert abs(b.raw_sum) <= b.total


class TestPopcountMatchesPerBit:
    """The popcount scorer equals the per-bit scorer of
    ``reference_fitness.py`` field for field at every phi the repository
    uses (integer weights keep the float sums exact)."""

    PHIS = (0.0, 1.0, 2.0, 3.0)
    values = st.text(alphabet="01xz", min_size=1, max_size=70)

    @given(
        st.lists(st.tuples(values, values | st.none()), min_size=1, max_size=8),
        st.sampled_from(PHIS),
        st.booleans(),
    )
    def test_random_traces(self, pairs, phi, drop_last_row):
        oracle = trace([(i, {"a": exp, "b": exp[::-1]}) for i, (exp, _) in enumerate(pairs)])
        rows = [
            (i, {"a": Value.from_string(act)} if act is not None else {})
            for i, (_, act) in enumerate(pairs)
        ]
        actual = SimulationTrace(rows[:-1] if drop_last_row else rows)
        assert evaluate_fitness(actual, oracle, phi) == reference.evaluate_fitness(
            actual, oracle, phi
        )

    def test_signed_values_extend_as_the_reference(self):
        oracle = trace([(0, {"a": "10101010"}), (5, {"a": "xxxx1111"})])
        actual = SimulationTrace([
            (0, {"a": Value.from_int(-3, 4).resized(4, signed=True)}),
            (5, {"a": Value.from_string("x01")}),
        ])
        for phi in self.PHIS:
            assert evaluate_fitness(actual, oracle, phi) == reference.evaluate_fitness(
                actual, oracle, phi
            )

    @pytest.mark.parametrize("scenario_id", ["counter_reset", "fsm_next_sens", "i2c_ack"])
    def test_scenario_traces(self, scenario_id):
        scenario = load_scenario(scenario_id)
        oracle = scenario.oracle()
        faulty = simulate_design_text(
            scenario.faulty_design_text, scenario.instrumented_testbench()
        )
        for candidate in (faulty, oracle, SimulationTrace()):
            for phi in self.PHIS:
                assert evaluate_fitness(candidate, oracle, phi) == (
                    reference.evaluate_fitness(candidate, oracle, phi)
                )
