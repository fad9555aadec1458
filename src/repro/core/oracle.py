"""Oracle generation: expected-behaviour traces (paper §4.1.2).

The paper obtains correct-behaviour information from "a previously
functioning version of the circuit design": the golden design is simulated
under the instrumented testbench and the recorded trace becomes the
expected output ``O``.  RQ4 degrades this oracle to 50% / 25% of its rows
via :meth:`SimulationTrace.subsample`.
"""

from __future__ import annotations

from ..hdl import ast
from ..instrument.instrumenter import instrument_testbench, is_instrumented
from ..instrument.trace import SimulationTrace
from ..sim.simulator import Simulator


class OracleError(Exception):
    """Raised when the golden design fails to simulate cleanly."""


def combine_sources(design: ast.Source, testbench: ast.Source) -> ast.Source:
    """Concatenate design and testbench modules into one source tree.

    The modules ride along uncloned, as in
    :func:`repro.core.backend.evaluate_design_text`: a simulator never
    mutates the tree it runs, so this simulates the trees it is given.
    """
    return ast.Source(list(design.modules) + list(testbench.modules))


def ensure_instrumented(
    testbench: ast.Source,
    design: ast.Source,
    clock_override: str | None = None,
) -> ast.Source:
    """Instrument the testbench if it does not already record outputs."""
    design_modules = {m.name: m for m in design.modules}
    for module in testbench.modules:
        if is_instrumented(module):
            return testbench
    instrumented, _ = instrument_testbench(
        testbench, design_modules, clock_override=clock_override
    )
    return instrumented


def golden_run(
    golden_design: ast.Source,
    instrumented_testbench: ast.Source,
    max_sim_time: int = 1_000_000,
    max_sim_steps: int = 5_000_000,
    require_finish: bool = True,
) -> tuple[SimulationTrace, int]:
    """Simulate the golden design once: ``(expected trace, statements run)``.

    The statement count is the golden run's cost, which
    ``Scenario.suggested_config`` scales the candidates' step budget from.
    """
    combined = combine_sources(golden_design, instrumented_testbench)
    sim = Simulator(combined, max_steps=max_sim_steps)
    result = sim.run(max_sim_time)
    if result.errors:
        raise OracleError(f"golden design simulation reported errors: {result.errors[:3]}")
    if require_finish and not result.finished:
        raise OracleError("golden design simulation did not reach $finish")
    if not result.trace:
        raise OracleError("golden design produced an empty trace (not instrumented?)")
    return SimulationTrace.from_records(result.trace), result.steps_used


def generate_oracle(
    golden_design: ast.Source,
    instrumented_testbench: ast.Source,
    max_sim_time: int = 1_000_000,
    max_sim_steps: int = 5_000_000,
    require_finish: bool = True,
) -> SimulationTrace:
    """Simulate the golden design and return the recorded expected trace."""
    return golden_run(
        golden_design, instrumented_testbench, max_sim_time, max_sim_steps,
        require_finish,
    )[0]


def degrade_oracle(oracle: SimulationTrace, fraction: float) -> SimulationTrace:
    """RQ4 helper: keep only ``fraction`` of the oracle's annotations."""
    return oracle.subsample(fraction)
