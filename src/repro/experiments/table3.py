"""Table 3: per-defect repair results (the paper's headline table).

Runs CirFix on every defect scenario and prints, per row: category,
plausible/correct outcome, repair time, and the paper's outcome for
comparison.  The paper reports 21/32 plausible and 16/32 correct under
5 × 12-hour trials with population 5000; laptop presets necessarily
repair a subset, but the *shape* — template-class defects repaired fast,
width/instantiation defects never repaired — should reproduce.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from ..benchsuite import all_scenarios
from ..core.config import RepairConfig
from .common import QUICK, ScenarioResult, format_table, run_scenarios


def run_table3(
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0, 1),
    scenario_ids: Iterable[str] | None = None,
    trace_dir: "str | Path | None" = None,
) -> list[ScenarioResult]:
    """Run the full (or filtered) Table 3 experiment.

    Delegates to :func:`repro.experiments.common.run_scenarios`:
    ``config.workers > 1`` parallelises the candidate evaluations inside
    each scenario, and ``trace_dir`` writes one repro.obs JSONL trace per
    scenario.
    """
    config = config or QUICK
    ids = (
        list(scenario_ids)
        if scenario_ids is not None
        else [s.scenario_id for s in all_scenarios()]
    )
    return run_scenarios(ids, config, seeds=seeds, trace_dir=trace_dir)


def render_table3(results: list[ScenarioResult]) -> str:
    """Render Table 3 rows plus the plausible/correct summary."""
    rows = []
    for r in results:
        time_text = f"{r.repair_seconds:.1f}" if r.repair_seconds is not None else "-"
        rows.append(
            [
                r.project,
                r.description[:48],
                str(r.category),
                r.outcome,
                time_text,
                f"{r.fitness:.3f}",
                r.paper_outcome,
            ]
        )
    table = format_table(
        ["Project", "Defect", "Cat", "Outcome", "Time(s)", "Fitness", "Paper"], rows
    )
    plausible = sum(1 for r in results if r.plausible)
    correct = sum(1 for r in results if r.correct)
    paper_plausible = sum(1 for r in results if r.paper_outcome in ("correct", "plausible"))
    paper_correct = sum(1 for r in results if r.paper_outcome == "correct")
    summary = (
        f"\nPlausible: {plausible}/{len(results)} (paper: {paper_plausible}/{len(results)})"
        f"\nCorrect:   {correct}/{len(results)} (paper: {paper_correct}/{len(results)})"
    )
    return table + summary


def main(
    preset: str = "quick",
    workers: int | None = None,
    trace_dir: "str | Path | None" = None,
) -> None:
    """Run and print Table 3; ``workers`` sets ``config.workers`` of the preset."""
    from .common import PRESETS

    config = PRESETS[preset].scaled(workers=workers or 1)
    results = run_table3(config, trace_dir=trace_dir)
    print("Table 3: repair results for CirFix")
    print(render_table3(results))
    if trace_dir is not None:
        print(f"\ntelemetry traces written to {trace_dir}/<scenario>.jsonl")


if __name__ == "__main__":  # pragma: no cover
    main()
