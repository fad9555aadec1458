"""The CirFix fitness function (paper §3.2).

Given a simulation result ``S`` and expected output ``O`` (both
``Time -> Var -> {0,1,x,z}`` traces), the fitness sums a per-bit score over
every timestamp the oracle annotates:

====================  =======
bit pair (O, S)        score
====================  =======
(0,0) or (1,1)          +1
(x,x) or (z,z)          +φ
(1,0) or (0,1)          -1
any other x/z pair      -φ
====================  =======

``total`` accumulates the corresponding positive weights, and the
normalised fitness is ``max(0, sum) / total`` — 1.0 means a plausible
(testbench-adequate) repair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..instrument.trace import SimulationTrace
from ..sim.logic import Value

#: Paper default x/z penalty weight (§4.2: φ = 2).
DEFAULT_PHI = 2.0


@dataclass(frozen=True)
class FitnessBreakdown:
    """Fitness with its components, for analysis and tests."""

    fitness: float
    raw_sum: float
    total: float
    matches: int
    mismatches: int
    xz_positions: int

    @property
    def is_plausible(self) -> bool:
        """True for a testbench-adequate candidate (fitness == 1.0)."""
        return self.fitness >= 1.0


def evaluate_fitness(
    simulated: SimulationTrace,
    expected: SimulationTrace,
    phi: float = DEFAULT_PHI,
) -> FitnessBreakdown:
    """Score ``simulated`` against the oracle ``expected``.

    Timestamps are matched exactly: the oracle defines which (time, var)
    pairs count (§3.2 footnote — the developer may provide expected values
    only at certain intervals).  A (time, var) pair the candidate failed to
    produce at all is scored as an all-x observation.

    Each (time, var) pair is scored a whole value at a time from the two
    planes of its bits (``aval``, ``bval``: 0=(0,0), 1=(1,0), z=(0,1),
    x=(1,1)): a mask of the bit positions both sides know, a mask of the
    positions where both planes agree, and ``int.bit_count`` over them
    count the four kinds of bit pair in the table above.  The sums are
    formed from those counts, so an integer ``phi`` gives the same floats
    as adding the scores bit by bit.
    """
    simulated_by_time: dict[int, dict[str, Value]] = {
        time: values for time, values in simulated.rows
    }
    known_equal = known_unequal = unknown_equal = unknown_unequal = 0
    for time, expected_values in expected.rows:
        actual_values = simulated_by_time.get(time)
        for var, exp in expected_values.items():
            width = exp.width
            mask = (1 << width) - 1
            if actual_values is not None and var in actual_values:
                act = actual_values[var].resized(width)
                act_a, act_b = act.aval, act.bval
            else:
                act_a = act_b = mask  # all x
            known = mask & ~(exp.bval | act_b)
            equal = mask & ~((exp.aval ^ act_a) | (exp.bval ^ act_b))
            both_known = known.bit_count()
            matched = (known & equal).bit_count()
            # Equal planes with an x/z bit: (x,x) or (z,z).
            equal_unknown = (equal & ~known).bit_count()
            known_equal += matched
            known_unequal += both_known - matched
            unknown_equal += equal_unknown
            unknown_unequal += width - both_known - equal_unknown
    unknown = unknown_equal + unknown_unequal
    raw_sum = float(known_equal - known_unequal) + phi * (unknown_equal - unknown_unequal)
    total = float(known_equal + known_unequal) + phi * unknown
    matches = known_equal + (unknown_equal if phi > 0 else 0) + (
        unknown_unequal if -phi > 0 else 0
    )
    mismatches = known_equal + known_unequal + unknown - matches
    if total <= 0:
        return FitnessBreakdown(0.0, raw_sum, total, matches, mismatches, unknown)
    fitness = max(0.0, raw_sum) / total
    return FitnessBreakdown(fitness, raw_sum, total, matches, mismatches, unknown)


def fitness_score(
    simulated: SimulationTrace,
    expected: SimulationTrace,
    phi: float = DEFAULT_PHI,
) -> float:
    """Convenience wrapper returning only the normalised fitness."""
    return evaluate_fitness(simulated, expected, phi).fitness
