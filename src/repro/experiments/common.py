"""Shared infrastructure for the experiment harness.

Budgets: the paper ran population 5000 × 8 generations × 12 h per trial on
a commercial simulator.  The same algorithm runs here at laptop scale; the
three presets trade coverage for wall-clock time.  ``EXPERIMENTS.md``
records which preset produced the committed numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..benchsuite import Scenario, load_scenario
from ..core.config import RepairConfig
from ..core.engines import DEFAULT_ENGINE, get_engine
from ..core.harness import best_outcome, run_trials
from ..core.repair import CirFixEngine
from ..obs.jsonl import JsonlTraceObserver
from ..obs.observer import ObserverSet, RepairObserver

#: CI-sized preset: seconds per scenario.  A large generation-0 seed pool
#: matters more than generation count (the paper's population of 5000 means
#: most of its fast repairs surfaced in the first generations).
SMOKE = RepairConfig(
    population_size=120,
    max_generations=4,
    max_wall_seconds=90.0,
    max_fitness_evals=600,
    minimize_budget=64,
)

#: Default preset for the committed experiment numbers.
QUICK = RepairConfig(
    population_size=300,
    max_generations=8,
    max_wall_seconds=420.0,
    max_fitness_evals=4000,
    minimize_budget=128,
)

#: Overnight-style preset approximating the paper's budgets.
FULL = RepairConfig(
    population_size=1500,
    max_generations=8,
    max_wall_seconds=3600.0,
    max_fitness_evals=60000,
    minimize_budget=256,
)

PRESETS: dict[str, RepairConfig] = {"smoke": SMOKE, "quick": QUICK, "full": FULL}


@dataclass
class ScenarioResult:
    """Outcome of repairing one scenario (one Table 3 row)."""

    scenario_id: str
    project: str
    description: str
    category: int
    plausible: bool
    correct: bool
    repair_seconds: float | None
    fitness: float
    simulations: int
    generations: int
    edits: int
    paper_outcome: str
    seed: int
    best_fitness_history: list[float] = field(default_factory=list)
    repaired_source: str | None = None
    #: Unique candidate evaluations across the trials that ran — the
    #: deterministic budget counter, identical across backends.  Always
    #: equal to ``simulations``.
    eval_sims: int = 0

    @property
    def outcome(self) -> str:
        if self.correct:
            return "correct"
        if self.plausible:
            return "plausible"
        return "none"


def run_scenario(
    scenario: Scenario,
    config: RepairConfig,
    observers: Sequence[RepairObserver] | None = None,
    *,
    seeds: tuple[int, ...] = (0, 1),
    engine: str = DEFAULT_ENGINE,
) -> ScenarioResult:
    """Run repair trials on one scenario (paper: 5 independent trials,
    stopping at the first plausible repair).

    This is the one entry point every experiment funnels through.  The
    built-in ``"cirfix"`` engine runs one trial per seed through
    :func:`~repro.core.harness.run_trials`, on one evaluation backend
    built from ``config`` — the supervised process pool when
    ``config.workers > 1`` — so it is paid for once per scenario, not
    once per seed.  Other registered engines (:mod:`repro.core.engines`)
    receive all seeds in one runner call and scope their own backend.
    ``observers`` (repro.obs) see every trial's event stream; they never
    influence the search.
    """
    scaled = scenario.suggested_config(config)
    events = observers if isinstance(observers, ObserverSet) else ObserverSet(observers)
    start = time.monotonic()
    problem = scenario.problem()
    if engine == DEFAULT_ENGINE:
        outcomes = run_trials(CirFixEngine, problem, scaled, seeds, observers=events)
    else:
        outcomes = [get_engine(engine)(problem, scaled, tuple(seeds), observers=events)]
    chosen = best_outcome(outcomes)
    winner = chosen if chosen.plausible else None
    correct = False
    if winner is not None and winner.repaired_source is not None:
        correct = scenario.is_correct_repair(winner.repaired_source)
    defect = scenario.defect
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        project=defect.project,
        description=defect.description,
        category=defect.category,
        plausible=winner is not None,
        correct=correct,
        repair_seconds=(time.monotonic() - start) if winner is not None else None,
        fitness=chosen.fitness,
        simulations=sum(outcome.simulations for outcome in outcomes),
        generations=chosen.generations,
        edits=len(chosen.patch),
        paper_outcome=defect.paper_outcome,
        seed=chosen.seed,
        best_fitness_history=chosen.best_fitness_history,
        repaired_source=chosen.repaired_source,
        eval_sims=sum(outcome.eval_sims for outcome in outcomes),
    )


def run_scenarios(
    scenario_ids: Iterable[str],
    config: RepairConfig,
    *,
    seeds: tuple[int, ...] = (0, 1),
    trace_dir: "str | Path | None" = None,
) -> list[ScenarioResult]:
    """Run a sweep of scenarios, one after another, in ``scenario_ids`` order.

    ``config.workers > 1`` parallelises the candidate evaluations inside
    each scenario; rows are identical at every worker count.  With
    ``trace_dir`` set, each scenario writes a repro.obs JSONL trace to
    ``trace_dir/<scenario_id>.jsonl``.
    """
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for scenario_id in scenario_ids:
        observers: list[RepairObserver] = []
        if trace_dir is not None:
            observers.append(JsonlTraceObserver(trace_dir / f"{scenario_id}.jsonl"))
        try:
            results.append(
                run_scenario(load_scenario(scenario_id), config, observers, seeds=seeds)
            )
        finally:
            for observer in observers:
                observer.close()
    return results


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a fixed-width text table (the harness's output format)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
