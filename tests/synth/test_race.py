"""Escalation (``engine="race"``): synth first, GP only when synth fails."""

from types import SimpleNamespace

import pytest

import repro.synth.race as race_mod
from repro.core import TEST_CONFIG
from repro.core.engines import get_engine
from repro.core.repair import repair
from repro.synth import race_repair, synth_repair

from .test_engine import FAULTY_NEGATED, GOLDEN_FF, Recorder, make_problem, stable_report

#: The reset assignment deleted, as in counter_reset: no template
#: re-grows a statement, so the synth leg fails and GP runs.
FAULTY_DELETED = GOLDEN_FF.replace(
    "if (!rstn) q <= 1'b0;\n    else begin", "if (rstn) begin"
)


def trials_started(recorder: Recorder) -> int:
    return sum(event.type == "trial_started" for event in recorder.events)


class TestEscalation:
    def test_synth_repair_is_returned_without_running_gp(self):
        recorder = Recorder()
        outcome = race_repair(
            make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (0,),
            observers=[recorder],
        )
        standalone = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (0,))
        assert outcome.plausible
        assert stable_report(outcome, "ff") == stable_report(standalone, "ff")
        assert trials_started(recorder) == 1

    def test_gp_runs_when_synth_fails(self):
        recorder = Recorder()
        outcome = race_repair(
            make_problem(FAULTY_DELETED, "ff"), TEST_CONFIG, (0,),
            observers=[recorder],
        )
        standalone = repair(make_problem(FAULTY_DELETED, "ff"), TEST_CONFIG, (0,))
        assert stable_report(outcome, "ff") == stable_report(standalone, "ff")
        assert trials_started(recorder) == 2

    def test_cancel_in_the_first_leg_stops_the_escalation(self):
        # Cancel once the synth leg has closed its first template round:
        # GP never starts, and the race returns what synth had.
        def run(runner):
            recorder = Recorder()

            def cancel():
                return any(e.type == "generation_completed" for e in recorder.events)

            outcome = runner(
                make_problem(FAULTY_DELETED, "ff"), TEST_CONFIG, (0,),
                observers=[recorder], cancel=cancel,
            )
            return outcome, recorder

        outcome, recorder = run(race_repair)
        first_leg, _ = run(synth_repair)
        assert trials_started(recorder) == 1
        assert stable_report(outcome, "ff") == stable_report(first_leg, "ff")


class TestTieOrder:
    """Neither leg plausible: GP's outcome wins unless synth scored higher."""

    def race(self, monkeypatch, synth_fitness, gp_fitness):
        legs = {
            "synth": SimpleNamespace(plausible=False, fitness=synth_fitness),
            "gp": SimpleNamespace(plausible=False, fitness=gp_fitness),
        }
        monkeypatch.setattr(race_mod, "synth_repair", lambda *a, **k: legs["synth"])
        monkeypatch.setattr(race_mod, "repair", lambda *a, **k: legs["gp"])
        outcome = race_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (0,))
        return next(name for name, leg in legs.items() if leg is outcome)

    @pytest.mark.parametrize(
        "synth_fitness, gp_fitness, winner",
        [(0.5, 0.5, "gp"), (0.5, 0.4, "synth"), (0.4, 0.5, "gp")],
        ids=["equal-fitness", "synth-higher", "gp-higher"],
    )
    def test_tie_order(self, monkeypatch, synth_fitness, gp_fitness, winner):
        assert self.race(monkeypatch, synth_fitness, gp_fitness) == winner


def test_race_resolves_to_race_repair():
    assert get_engine("race") is race_repair
