"""Scenario sweeps give the same rows at every worker count.

``run_scenarios`` and ``run_rq1`` run their scenarios one after another;
``config.workers`` only parallelises the candidate evaluations inside
each scenario.  A two-worker sweep must therefore return the rows of a
serial sweep and write one JSONL trace per scenario, with the same
event-type sequence.
"""

import dataclasses

from repro.core.config import RepairConfig
from repro.experiments.common import run_scenarios
from repro.experiments.rq1 import run_rq1
from repro.obs import read_events

SCENARIOS = ("counter_sens", "ff_cond")
#: Small and bounded by evaluations, not wall-clock, so rows are exact.
BUDGET = RepairConfig(
    population_size=16,
    max_generations=2,
    max_wall_seconds=1e6,
    max_fitness_evals=32,
    minimize_budget=8,
)


def _trace_types(trace_dir):
    """scenario file name → event-type sequence of its trace."""
    return {
        path.name: [event.type for event in read_events(path)]
        for path in sorted(trace_dir.iterdir())
    }


def _sweep(run_sweep, tmp_path, workers):
    trace_dir = tmp_path / f"workers{workers}"
    rows = run_sweep(
        scenario_ids=SCENARIOS,
        config=BUDGET.scaled(workers=workers),
        seeds=(0, 1),
        trace_dir=trace_dir,
    )
    traces = _trace_types(trace_dir)
    assert list(traces) == [f"{sid}.jsonl" for sid in SCENARIOS]
    assert all(types for types in traces.values())
    return rows, traces


def test_run_scenarios_rows_match_across_worker_counts(tmp_path):
    def outcome_fields(results):
        return [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "repair_seconds"}
            for r in results
        ]

    serial, serial_traces = _sweep(run_scenarios, tmp_path, 1)
    pooled, pooled_traces = _sweep(run_scenarios, tmp_path, 2)
    assert [r.scenario_id for r in serial] == list(SCENARIOS)
    assert outcome_fields(pooled) == outcome_fields(serial)
    assert pooled_traces == serial_traces


def test_run_rq1_rows_match_across_worker_counts(tmp_path):
    serial, serial_traces = _sweep(run_rq1, tmp_path, 1)
    pooled, pooled_traces = _sweep(run_rq1, tmp_path, 2)
    assert [r.scenario_id for r in serial.rows] == list(SCENARIOS)
    assert pooled.rows == serial.rows
    assert pooled_traces == serial_traces
