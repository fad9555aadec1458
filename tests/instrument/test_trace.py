"""SimulationTrace tests, including property-based subsampling invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.instrument.trace import SimulationTrace, output_mismatch
from repro.sim.logic import Value
from repro.sim.simulator import TraceRecord


def make_trace(rows):
    """rows: list of (time, {var: bitstring})."""
    return SimulationTrace(
        [(t, {k: Value.from_string(v) for k, v in values.items()}) for t, values in rows]
    )


class TestBasics:
    def test_from_records(self):
        records = [TraceRecord(5, {"a": Value.from_int(1, 1)})]
        trace = SimulationTrace.from_records(records)
        assert trace.times() == [5]
        assert trace.get(5, "a").to_int() == 1

    def test_variables_ordered_first_seen(self):
        trace = make_trace([(0, {"b": "1", "a": "0"}), (1, {"c": "1"})])
        assert trace.variables() == ["b", "a", "c"]

    def test_get_missing(self):
        trace = make_trace([(0, {"a": "1"})])
        assert trace.get(1, "a") is None
        assert trace.get(0, "b") is None


class TestCsv:
    def test_roundtrip(self):
        trace = make_trace([(5, {"a": "10xz", "b": "1"}), (15, {"a": "0001", "b": "x"})])
        restored = SimulationTrace.from_csv(trace.to_csv())
        assert restored.times() == [5, 15]
        assert restored.get(5, "a").to_bit_string() == "10xz"
        assert restored.get(15, "b").to_bit_string() == "x"

    def test_empty(self):
        assert len(SimulationTrace.from_csv("")) == 0

    def test_bad_header_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SimulationTrace.from_csv("tick,a\n0,1")


class TestSubsample:
    def test_full_fraction_identity(self):
        trace = make_trace([(i, {"a": "1"}) for i in range(10)])
        assert trace.subsample(1.0).times() == trace.times()

    def test_half_keeps_half(self):
        trace = make_trace([(i, {"a": "1"}) for i in range(10)])
        assert len(trace.subsample(0.5)) == 5

    def test_quarter(self):
        trace = make_trace([(i, {"a": "1"}) for i in range(20)])
        assert len(trace.subsample(0.25)) == 5

    def test_invalid_fraction(self):
        import pytest

        trace = make_trace([(0, {"a": "1"})])
        with pytest.raises(ValueError):
            trace.subsample(0.0)

    @given(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_subsample_is_subset_and_deterministic(self, n, fraction):
        trace = make_trace([(i * 10, {"a": "1"}) for i in range(n)])
        sub1 = trace.subsample(fraction)
        sub2 = trace.subsample(fraction)
        assert sub1.times() == sub2.times()
        assert set(sub1.times()) <= set(trace.times())
        assert 1 <= len(sub1) <= len(trace)


class TestOutputMismatch:
    def test_no_mismatch(self):
        oracle = make_trace([(0, {"a": "1"})])
        actual = make_trace([(0, {"a": "1"})])
        assert output_mismatch(oracle, actual) == set()

    def test_value_mismatch(self):
        oracle = make_trace([(0, {"a": "1", "b": "0"})])
        actual = make_trace([(0, {"a": "0", "b": "0"})])
        assert output_mismatch(oracle, actual) == {"a"}

    def test_x_vs_defined_is_mismatch(self):
        oracle = make_trace([(0, {"a": "0"})])
        actual = make_trace([(0, {"a": "x"})])
        assert output_mismatch(oracle, actual) == {"a"}

    def test_missing_timestamp_blames_all_vars(self):
        oracle = make_trace([(0, {"a": "1"}), (10, {"a": "1", "b": "0"})])
        actual = make_trace([(0, {"a": "1"})])
        assert output_mismatch(oracle, actual) == {"a", "b"}

    def test_extra_actual_rows_ignored(self):
        oracle = make_trace([(0, {"a": "1"})])
        actual = make_trace([(0, {"a": "1"}), (10, {"a": "0"})])
        assert output_mismatch(oracle, actual) == set()

    def test_width_mismatch_compares_at_oracle_width(self):
        oracle = make_trace([(0, {"a": "0001"})])
        actual = SimulationTrace([(0, {"a": Value.from_int(1, 1)})])
        assert output_mismatch(oracle, actual) == set()
