#!/usr/bin/env python3
"""Debug a faulty design with the trace-diff report.

Shows the observability tooling around the repair loop: load the
``rs_sens`` defect (the paper's "the original testbench reports no errors
but the instrumented comparison catches it" case from §5.3) and print the
Figure-2-style divergence report of the faulty run.

Run:  python examples/trace_diff_debugging.py
"""

from repro.benchsuite import load_scenario
from repro.core.oracle import combine_sources
from repro.hdl import parse
from repro.instrument import SimulationTrace, diff_traces, render_diff
from repro.sim import Simulator


def main() -> int:
    scenario = load_scenario("rs_sens")
    print(f"scenario: {scenario.scenario_id} — {scenario.defect.description}")

    combined = combine_sources(
        parse(scenario.faulty_design_text), scenario.instrumented_testbench()
    )
    result = Simulator(combined).run(1_000_000)
    print(f"simulated to t={result.time}; $display output: {result.output}")

    trace = SimulationTrace.from_records(result.trace)
    diff = diff_traces(scenario.oracle(), trace)
    print()
    print(render_diff(diff, max_rows=12))
    print(
        f"\nThe original testbench printed no complaint, yet "
        f"{len(diff.diffs)} of {diff.compared_cells} recorded cells diverge "
        f"(fitness {scenario.faulty_fitness():.4f}; paper reports 0.999 for "
        "the analogous out_stage defect)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
