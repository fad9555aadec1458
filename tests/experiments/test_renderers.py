"""Renderer tests for the experiment harness outputs."""

from repro.experiments.common import ScenarioResult
from repro.experiments.rq1 import HeadToHeadRow, Rq1Result, render_rq1
from repro.experiments.rq4 import Rq4Cell, Rq4Result, render_rq4
from repro.experiments.table3 import render_table3


def result(sid, cat, outcome, seconds=None):
    return ScenarioResult(
        scenario_id=sid,
        project="proj",
        description="a defect",
        category=cat,
        plausible=outcome != "none",
        correct=outcome == "correct",
        repair_seconds=seconds,
        fitness=1.0 if outcome != "none" else 0.4,
        simulations=100,
        generations=2,
        edits=1,
        paper_outcome="correct",
        seed=0,
    )


class TestTable3Renderer:
    def test_summary_counts(self):
        rows = [
            result("a", 1, "correct", 1.0),
            result("b", 1, "plausible", 2.0),
            result("c", 2, "none"),
        ]
        text = render_table3(rows)
        assert "Plausible: 2/3" in text
        assert "Correct:   1/3" in text
        assert "paper: 3/3" in text  # all paper_outcome='correct'

    def test_missing_time_dash(self):
        text = render_table3([result("a", 1, "none")])
        assert "-" in text

    def test_outcome_property(self):
        assert result("x", 1, "correct", 1.0).outcome == "correct"
        assert result("x", 1, "plausible", 1.0).outcome == "plausible"
        assert result("x", 1, "none").outcome == "none"


class TestRq1Renderer:
    def test_wins_counted(self):
        rows = [
            HeadToHeadRow("a", True, 100, False, 500),
            HeadToHeadRow("b", True, 50, True, 200),
            HeadToHeadRow("c", False, 600, False, 600),
        ]
        res = Rq1Result(rows)
        assert res.cirfix_wins == 1
        text = render_rq1(res)
        assert "CirFix repairs 1 scenarios" in text


class TestRq4Renderer:
    def test_levels_and_paper_column(self):
        res = Rq4Result(
            [
                Rq4Cell(1.0, 3, 3, 3),
                Rq4Cell(0.5, 3, 2, 3),
                Rq4Cell(0.25, 2, 1, 3),
            ]
        )
        text = render_rq4(res)
        assert "100%" in text and "50%" in text and "25%" in text
        assert "21/16" in text  # paper reference for full oracle
        assert res.by_fraction(0.5).correct == 2

    def test_unknown_fraction_raises(self):
        import pytest

        res = Rq4Result([Rq4Cell(1.0, 1, 1, 1)])
        with pytest.raises(KeyError):
            res.by_fraction(0.33)


class TestMintedRenderer:
    def test_table_and_overall_line(self):
        from repro.mint.grading import GradedScenario, GradeReport
        from repro.experiments.minted import render_minted_comparison

        def graded(sid, mutator, plausible, truth):
            return GradedScenario(
                scenario_id=sid,
                source="fuzz",
                base="seed:1",
                mutator=mutator,
                category=1,
                faulty_fitness=0.5,
                plausible=plausible,
                correct=plausible,
                ground_truth_match=truth,
                fitness=1.0 if plausible else 0.5,
                eval_sims=10,
                generations=1,
                edits=1,
            )

        report = GradeReport(
            seed=0,
            engine="cirfix",
            results=[
                graded("a", "negate_condition", True, True),
                graded("b", "negate_condition", True, False),
                graded("c", "stuck_constant", False, False),
            ],
        )
        text = render_minted_comparison({"cirfix": report})
        assert "negate_condition" in text
        assert "2/2" in text  # both negate scenarios plausible
        assert "overall (cirfix): plausible 2/3" in text
        assert "ground-truth match 1/3" in text
