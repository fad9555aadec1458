"""Runtime analysis (paper §5.1 and artifact appendix A.2).

The paper reports: "The average wall-clock time for a trial to find a
repair was 2.03 hours, of which an average of over 90% was spent on
fitness evaluations (i.e., design simulations)."  This experiment runs a
few trials and measures the same breakdown for our pipeline — time inside
candidate evaluation (codegen + parse + elaborate + simulate + fitness)
versus total trial time (selection, localization bookkeeping, patching).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..benchsuite import load_scenario
from ..core.config import RepairConfig
from ..core.repair import CirFixEngine
from .common import SMOKE, format_table

PROFILE_SCENARIOS: tuple[str, ...] = ("counter_reset", "ff_cond", "lshift_cond")


@dataclass
class RuntimeRow:
    scenario_id: str
    total_seconds: float
    evaluation_seconds: float
    simulations: int
    plausible: bool

    @property
    def evaluation_share(self) -> float:
        return self.evaluation_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def sims_per_second(self) -> float:
        return self.simulations / self.total_seconds if self.total_seconds else 0.0


def run_runtime_analysis(
    config: RepairConfig | None = None,
    scenario_ids: tuple[str, ...] = PROFILE_SCENARIOS,
    seed: int = 0,
) -> list[RuntimeRow]:
    """Profile trials and split evaluation time from total time."""
    config = config or SMOKE
    rows = []
    for scenario_id in scenario_ids:
        scenario = load_scenario(scenario_id)
        engine = CirFixEngine(scenario.problem(), scenario.suggested_config(config), seed)
        started = time.monotonic()
        outcome = engine.run()
        total = time.monotonic() - started
        rows.append(
            RuntimeRow(
                scenario_id=scenario_id,
                total_seconds=total,
                evaluation_seconds=engine.evaluation_seconds,
                simulations=engine.eval_sims,
                plausible=outcome.plausible,
            )
        )
    return rows


def render_runtime_analysis(rows: list[RuntimeRow]) -> str:
    """Render the runtime rows as a text table."""
    body = [
        [
            r.scenario_id,
            f"{r.total_seconds:.2f}",
            f"{r.evaluation_seconds:.2f}",
            f"{r.evaluation_share * 100:.1f}%",
            f"{r.sims_per_second:.0f}",
            "yes" if r.plausible else "no",
        ]
        for r in rows
    ]
    table = format_table(
        ["Scenario", "Total(s)", "Eval(s)", "Eval share", "Sims/s", "Repaired"], body
    )
    mean_share = sum(r.evaluation_share for r in rows) / len(rows) if rows else 0.0
    return table + (
        f"\nmean evaluation share: {mean_share * 100:.1f}% "
        "(paper: >90% of trial time in fitness evaluations)"
    )


def main(preset: str = "smoke") -> None:
    """Print the runtime analysis."""
    from .common import PRESETS

    print("Runtime analysis (Section 5.1)")
    print(render_runtime_analysis(run_runtime_analysis(PRESETS[preset])))


if __name__ == "__main__":  # pragma: no cover
    main()
