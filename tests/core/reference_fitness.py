"""Reference fitness for the differential test in ``test_fitness.py``.

:func:`evaluate_fitness` scores the trace one bit at a time, reading
each bit of both values as a ``'0'``/``'1'``/``'x'``/``'z'`` character
and adding its score and weight from the paper's table (§3.2): the most
direct statement of the fitness function.
:func:`repro.core.fitness.evaluate_fitness` must return an equal
:class:`~repro.core.fitness.FitnessBreakdown` for every phi the repository
uses.
"""

from __future__ import annotations

from repro.core.fitness import DEFAULT_PHI, FitnessBreakdown
from repro.instrument.trace import SimulationTrace
from repro.sim.logic import Value


def _bit_score(expected: str, actual: str, phi: float) -> tuple[float, float]:
    """Return (sum contribution, total contribution) for one bit pair."""
    if expected in "01" and actual in "01":
        return (1.0, 1.0) if expected == actual else (-1.0, 1.0)
    if expected == actual:  # (x,x) or (z,z)
        return phi, phi
    return -phi, phi


def evaluate_fitness(
    simulated: SimulationTrace,
    expected: SimulationTrace,
    phi: float = DEFAULT_PHI,
) -> FitnessBreakdown:
    simulated_by_time: dict[int, dict[str, Value]] = {
        time: values for time, values in simulated.rows
    }
    raw_sum = 0.0
    total = 0.0
    matches = mismatches = xz_positions = 0
    for time, expected_values in expected.rows:
        actual_values = simulated_by_time.get(time)
        for var, exp in expected_values.items():
            if actual_values is not None and var in actual_values:
                act = actual_values[var].resized(exp.width)
            else:
                act = Value.unknown(exp.width)
            for bit in range(exp.width):
                expected_bit = exp.bit(bit)
                actual_bit = act.bit(bit)
                score, weight = _bit_score(expected_bit, actual_bit, phi)
                raw_sum += score
                total += weight
                if expected_bit in "xz" or actual_bit in "xz":
                    xz_positions += 1
                if score > 0:
                    matches += 1
                else:
                    mismatches += 1
    if total <= 0:
        return FitnessBreakdown(0.0, raw_sum, total, matches, mismatches, xz_positions)
    fitness = max(0.0, raw_sum) / total
    return FitnessBreakdown(fitness, raw_sum, total, matches, mismatches, xz_positions)
