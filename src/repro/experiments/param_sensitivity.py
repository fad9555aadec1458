"""GP parameter sensitivity study (paper §4.2 future work, implemented).

"While we leave a comprehensive study of CirFix's parameter sensitivity as
future work, we evaluated other values suggested by literature (e.g.,
smaller population sizes), and found no significant differences in
CirFix's performance."

This experiment sweeps the three most influential knobs — population size,
repair-template threshold, and mutation threshold — on fast scenarios and
reports repair rate and search cost per setting, quantifying the paper's
informal claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchsuite import load_scenario
from ..core.config import RepairConfig
from ..core.harness import run_trials
from ..core.repair import CirFixEngine
from .common import SMOKE, format_table

#: Fast scenarios with distinct repair mechanisms (template vs operator).
SWEEP_SCENARIOS: tuple[str, ...] = ("ff_cond", "lshift_blocking", "counter_incr")

#: knob → settings swept (one at a time, others at paper defaults).
SWEEPS: dict[str, tuple[float, ...]] = {
    "population_size": (30, 120, 480),
    "rt_threshold": (0.0, 0.2, 0.5),
    "mut_threshold": (0.3, 0.7, 1.0),
}


@dataclass
class SweepCell:
    knob: str
    value: float
    repaired: int
    total: int
    mean_simulations: float

    @property
    def repair_rate(self) -> float:
        return self.repaired / self.total if self.total else 0.0


def run_param_sensitivity(
    base: RepairConfig | None = None,
    scenario_ids: tuple[str, ...] = SWEEP_SCENARIOS,
    seeds: tuple[int, ...] = (0, 1),
    sweeps: dict[str, tuple[float, ...]] | None = None,
) -> list[SweepCell]:
    """Sweep each knob one at a time and measure repair rate and cost."""
    base = base or SMOKE
    sweeps = sweeps or SWEEPS
    cells: list[SweepCell] = []
    for knob, values in sweeps.items():
        for value in values:
            override = int(value) if knob == "population_size" else float(value)
            repaired = 0
            simulations = 0
            runs = 0
            for scenario_id in scenario_ids:
                scenario = load_scenario(scenario_id)
                config = scenario.suggested_config(base).scaled(**{knob: override})
                outcomes = run_trials(CirFixEngine, scenario.problem(), config, seeds)
                runs += len(outcomes)
                simulations += sum(outcome.simulations for outcome in outcomes)
                repaired += outcomes[-1].plausible
            cells.append(
                SweepCell(
                    knob=knob,
                    value=value,
                    repaired=repaired,
                    total=len(scenario_ids),
                    mean_simulations=simulations / max(runs, 1),
                )
            )
    return cells


def render_param_sensitivity(cells: list[SweepCell]) -> str:
    """Render the sweep cells as a text table."""
    rows = [
        [
            cell.knob,
            f"{cell.value:g}",
            f"{cell.repaired}/{cell.total}",
            f"{cell.repair_rate * 100:.0f}%",
            f"{cell.mean_simulations:.0f}",
        ]
        for cell in cells
    ]
    table = format_table(["Knob", "Value", "Repaired", "Rate", "Mean sims/run"], rows)
    return table + (
        "\n(paper: no significant performance differences across "
        "literature-suggested parameter values)"
    )


def main(preset: str = "smoke") -> None:
    """Print the parameter-sensitivity study."""
    from .common import PRESETS

    print("GP parameter sensitivity (Section 4.2 future work)")
    print(render_param_sensitivity(run_param_sensitivity(PRESETS[preset])))


if __name__ == "__main__":  # pragma: no cover
    main()
