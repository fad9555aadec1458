#!/usr/bin/env python3
"""Quickstart: repair the paper's motivating example end to end.

The 4-bit counter from Figure 1 has a missing overflow reset (the
``counter_reset`` defect).  This script:

1. loads the defect scenario from the benchmark suite,
2. shows the fault localization and the faulty design's fitness,
3. runs the CirFix genetic search until a plausible repair appears,
4. prints the minimized repair and checks it against the held-out
   validation testbench.

Run:  python examples/quickstart.py [seed ...]
"""

import sys

from repro.benchsuite import load_scenario
from repro.core import CirFixEngine, RepairConfig
from repro.core.patch import Patch

CONFIG = RepairConfig(
    population_size=60,
    max_generations=12,
    max_wall_seconds=300.0,
    max_fitness_evals=4000,
)


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or [0, 1, 2, 3, 4]
    scenario = load_scenario("counter_reset")
    print(f"scenario: {scenario.scenario_id} — {scenario.defect.description}")
    print(f"oracle: {len(scenario.oracle())} recorded clock edges, "
          f"wires {scenario.oracle().variables()}")

    engine = CirFixEngine(scenario.problem(), scenario.suggested_config(CONFIG))
    faulty = engine.evaluate(Patch.empty())
    print(f"faulty fitness: {faulty.fitness:.3f} (paper: 0.58)")
    print(f"mismatched wires: {list(faulty.mismatch or ())}")

    for seed in seeds:
        engine = CirFixEngine(scenario.problem(), scenario.suggested_config(CONFIG), seed)
        outcome = engine.run()
        print(f"seed {seed}: {outcome.describe()}")
        if outcome.plausible:
            print("\nminimized patch:", outcome.patch.describe())
            print("\nrepaired design:\n")
            print(outcome.repaired_source)
            correct = scenario.is_correct_repair(outcome.repaired_source)
            print(f"validation-bench verdict: {'CORRECT' if correct else 'overfitted'}")
            return 0
    print("no plausible repair found within the budget; try more seeds")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
