"""RQ1: repair rate and the brute-force comparison (paper §5.1).

Beyond Table 3's per-defect outcomes, RQ1 makes two claims we reproduce:

1. CirFix's plausible-repair rate is in the range of strong software APR
   systems (paper: 65.6%);
2. a uniform-edit brute-force search "did not scale to the complexity of
   defects in our benchmark suite" — under the same simulation budget it
   repairs (almost) nothing that CirFix repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..baselines.brute_force import BruteForceRepair
from ..benchsuite import load_scenario
from ..core.config import RepairConfig
from .common import QUICK, format_table, run_scenarios

#: Scenarios used for the head-to-head (a spread of difficulties).
HEAD_TO_HEAD: tuple[str, ...] = (
    "counter_sens",
    "ff_cond",
    "lshift_cond",
    "sha3_loop",
    "counter_reset",
    "i2c_ack",
)


@dataclass
class HeadToHeadRow:
    scenario_id: str
    cirfix_plausible: bool
    cirfix_sims: int
    brute_plausible: bool
    brute_sims: int


@dataclass
class Rq1Result:
    rows: list[HeadToHeadRow]

    @property
    def cirfix_wins(self) -> int:
        return sum(1 for r in self.rows if r.cirfix_plausible and not r.brute_plausible)


def run_rq1(
    config: RepairConfig | None = None,
    scenario_ids: tuple[str, ...] = HEAD_TO_HEAD,
    seeds: tuple[int, ...] = (0, 1),
    trace_dir: "str | Path | None" = None,
) -> Rq1Result:
    """Run the CirFix vs brute-force head-to-head.

    The CirFix side is the shared :func:`run_scenarios` sweep (with
    ``trace_dir`` set, it writes a repro.obs JSONL trace per scenario to
    ``trace_dir/<scenario_id>.jsonl``); the brute-force side then runs
    under the same per-scenario budget.  ``config.workers > 1``
    parallelises the CirFix candidate evaluations; rows are identical at
    every worker count.
    """
    config = config or QUICK
    rows = []
    for cirfix in run_scenarios(scenario_ids, config, seeds=seeds, trace_dir=trace_dir):
        scenario = load_scenario(cirfix.scenario_id)
        scaled = scenario.suggested_config(config)
        brute = BruteForceRepair(scenario.problem(), scaled, seed=seeds[0]).run()
        rows.append(
            HeadToHeadRow(
                cirfix.scenario_id,
                cirfix.plausible,
                cirfix.simulations,
                brute.plausible,
                brute.simulations,
            )
        )
    return Rq1Result(rows)


def render_rq1(result: Rq1Result) -> str:
    """Render the head-to-head rows as a text table."""
    rows = [
        [
            r.scenario_id,
            "yes" if r.cirfix_plausible else "no",
            str(r.cirfix_sims),
            "yes" if r.brute_plausible else "no",
            str(r.brute_sims),
        ]
        for r in result.rows
    ]
    table = format_table(
        ["Scenario", "CirFix", "CirFix sims", "BruteForce", "Brute sims"], rows
    )
    return table + (
        f"\nCirFix repairs {result.cirfix_wins} scenarios brute force misses "
        "(paper: brute force reported no repairs within bounds)"
    )


def main(
    preset: str = "quick",
    workers: int | None = None,
    trace_dir: "str | Path | None" = None,
) -> None:
    """Print RQ1; ``workers`` sets ``config.workers`` of the preset."""
    from .common import PRESETS

    config = PRESETS[preset].scaled(workers=workers or 1)
    print("RQ1: CirFix vs brute-force search")
    print(render_rq1(run_rq1(config, trace_dir=trace_dir)))


if __name__ == "__main__":  # pragma: no cover
    main()
