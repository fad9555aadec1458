"""SynthEngine end-to-end: repairs, determinism, observers, cancel."""

import json
from pathlib import Path

import pytest

from repro.core import TEST_CONFIG, RepairProblem
from repro.core.engines import get_engine
from repro.core.oracle import ensure_instrumented, generate_oracle
from repro.core.serialize import outcome_to_json
from repro.hdl import parse
from repro.obs.observer import RecordingObserver
from repro.synth import synth_repair

#: The event-type sequence of the FAULTY_STUCK solve, pinned beside the
#: GP golden (``tests/obs/golden/dec_numeric_event_types.txt``).
GOLDEN = (
    Path(__file__).parents[1] / "obs" / "golden" / "synth_tff_stuck_event_types.txt"
)

GOLDEN_FF = """
module tff(clk, rstn, t, q);
  input clk, rstn, t;
  output q;
  reg q;
  always @(posedge clk) begin
    if (!rstn) q <= 1'b0;
    else begin
      if (t) q <= !q;
      else q <= q;
    end
  end
endmodule
"""

FAULTY_NEGATED = GOLDEN_FF.replace("if (t) q <= !q;", "if (!t) q <= !q;")
FAULTY_STUCK = GOLDEN_FF.replace("if (t) q <= !q;", "if (t) q <= 1'b1;")

TESTBENCH = """
module tb;
  reg clk, rstn, t;
  wire q;
  tff dut(.clk(clk), .rstn(rstn), .t(t), .q(q));
  always #5 clk = !clk;
  initial begin
    clk = 0; rstn = 0; t = 0;
    @(negedge clk);
    rstn = 1; t = 1;
    repeat (4) begin @(negedge clk); end
    t = 0;
    repeat (3) begin @(negedge clk); end
    #5 $finish;
  end
endmodule
"""


def make_problem(faulty: str, name: str) -> RepairProblem:
    golden = parse(GOLDEN_FF)
    bench = ensure_instrumented(parse(TESTBENCH), golden)
    oracle = generate_oracle(golden, bench)
    return RepairProblem(parse(faulty), bench, oracle, name)


class Recorder:
    """Observer that just collects every event."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def stable_report(outcome, name: str) -> dict:
    report = json.loads(outcome_to_json(outcome, name))
    report.pop("elapsed_seconds")
    return report


class TestRepairs:
    def test_repairs_negated_condition(self):
        outcome = synth_repair(make_problem(FAULTY_NEGATED, "ff_neg"), TEST_CONFIG)
        assert outcome.plausible
        assert outcome.fitness == 1.0
        assert outcome.repaired_source is not None

    def test_repairs_stuck_constant_assignment(self):
        outcome = synth_repair(make_problem(FAULTY_STUCK, "ff_stuck"), TEST_CONFIG)
        assert outcome.plausible
        assert outcome.fitness == 1.0


class TestDeterminism:
    def test_same_run_is_bit_identical(self):
        first = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG)
        second = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG)
        assert stable_report(first, "ff") == stable_report(second, "ff")

    def test_search_is_seed_independent(self):
        # The synth search is derandomized: any seed replays the same
        # trial; only the recorded seed differs.
        base = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (0,))
        other = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (7, 8))
        assert other.seed == 7
        left, right = stable_report(base, "ff"), stable_report(other, "ff")
        left.pop("seed"), right.pop("seed")
        assert left == right

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, ())


class TestObserversAndCancel:
    def test_observers_never_influence_the_search(self):
        recorder = Recorder()
        observed = synth_repair(
            make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, observers=[recorder]
        )
        silent = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG)
        assert stable_report(observed, "ff") == stable_report(silent, "ff")

    def test_synth_lifecycle_events_emitted(self):
        recorder = Recorder()
        synth_repair(
            make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, observers=[recorder]
        )
        types = [event.type for event in recorder.events]
        assert types[0] == "trial_started"
        assert "synth_template_enumerated" in types
        assert "synth_solve_completed" in types
        assert "plausible_patch_found" in types
        solve = next(
            e for e in recorder.events if e.type == "synth_solve_completed"
        )
        assert solve.plausible
        assert solve.winner_template

    def test_event_sequence_is_pinned(self):
        # FAULTY_STUCK runs four non-empty template rounds (and skips an
        # empty one) before replace_variables repairs it, so the golden
        # covers rounds, chunks, the winner and minimization.
        types = {}
        for backend, workers in (("serial", 1), ("process", 2)):
            recorder = RecordingObserver()
            outcome = synth_repair(
                make_problem(FAULTY_STUCK, "tff"),
                TEST_CONFIG.scaled(backend=backend, workers=workers),
                observers=[recorder],
            )
            assert outcome.plausible
            types[backend] = recorder.types()
        assert types["serial"].count("generation_completed") >= 2
        assert types["serial"] == types["process"]
        assert "\n".join(types["serial"]) + "\n" == GOLDEN.read_text()

    def test_cancel_stops_the_solve(self):
        outcome = synth_repair(
            make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, cancel=lambda: True
        )
        assert not outcome.plausible
        assert outcome.eval_sims <= 1


class TestRegistry:
    def test_synth_resolves_through_the_registry(self):
        runner = get_engine("synth")
        outcome = runner(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (0,))
        direct = synth_repair(make_problem(FAULTY_NEGATED, "ff"), TEST_CONFIG, (0,))
        assert stable_report(outcome, "ff") == stable_report(direct, "ff")
