"""Trace diffing tests."""

from repro.instrument.diff import CellDiff, diff_traces, render_diff
from repro.instrument.trace import SimulationTrace
from repro.sim.logic import Value


def trace(rows):
    return SimulationTrace(
        [(t, {k: Value.from_string(v) for k, v in values.items()}) for t, values in rows]
    )


class TestDiffTraces:
    def test_identical_traces_match(self):
        oracle = trace([(0, {"a": "10"}), (10, {"a": "01"})])
        diff = diff_traces(oracle, oracle)
        assert diff.is_match
        assert diff.compared_cells == 2
        assert diff.compared_bits == 4

    def test_single_divergence_located(self):
        oracle = trace([(0, {"a": "10"}), (10, {"a": "01"})])
        actual = trace([(0, {"a": "10"}), (10, {"a": "11"})])
        diff = diff_traces(oracle, actual)
        (first,) = diff.diffs
        assert first.time == 10
        assert first.var == "a"
        assert (first.expected, first.actual) == ("01", "11")

    def test_xz_flagged(self):
        oracle = trace([(0, {"a": "0"})])
        actual = trace([(0, {"a": "x"})])
        diff = diff_traces(oracle, actual)
        assert diff.diffs == [CellDiff(0, "a", "0", "x")]

    def test_missing_row_reported(self):
        oracle = trace([(0, {"a": "1"}), (5, {"a": "1"})])
        actual = trace([(0, {"a": "1"})])
        diff = diff_traces(oracle, actual)
        assert diff.diffs[0].actual == "?"

    def test_mismatched_vars_matches_faultloc_seed(self):
        from repro.instrument.trace import output_mismatch

        oracle = trace([(0, {"a": "1", "b": "0"}), (5, {"a": "0", "b": "0"})])
        actual = trace([(0, {"a": "1", "b": "1"}), (5, {"a": "1", "b": "0"})])
        diff = diff_traces(oracle, actual)
        assert diff.mismatched_vars == output_mismatch(oracle, actual)


class TestRender:
    def test_match_summary(self):
        oracle = trace([(0, {"a": "1"})])
        assert "traces match" in render_diff(diff_traces(oracle, oracle))

    def test_report_rows_capped(self):
        oracle = trace([(i, {"a": "1"}) for i in range(50)])
        actual = trace([(i, {"a": "0"}) for i in range(50)])
        text = render_diff(diff_traces(oracle, actual), max_rows=10)
        assert "and 40 more" in text
