"""Engine race: GP vs. template synthesis over minted defect families.

Runs both registered engines on the *same* minted scenario set — same
seed, same budget, same trial seeds — and reports which Table-3 defect
families each engine wins.  A scenario's winner is the engine that
reached a plausible repair with the fewest ``eval_sims`` (the
deterministic budget counter; engine name breaks exact ties), so the
verdict table is byte-identical on every backend.  First-to-plausible
wall-clock is measured per leg and reported alongside, but never enters
the verdict (wall time varies by host and backend).

Each (scenario, engine) pair runs through
:func:`~repro.experiments.common.run_scenario`, as every experiment
sweep does, one after another, with ``config.workers`` parallelising
candidate evaluation inside each leg.  The legs run exactly as a standalone grading of that
engine would, so the per-engine summaries here match
``repro.experiments minted`` / ``grade_scenarios`` runs of the same
engine verbatim (the race smoke in ``scripts/check_all.sh`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import RepairConfig
from ..mint import GRADE_CONFIG, MintConfig, mint_scenarios
from ..mint.factory import MintedScenario
from ..synth.race import RACE_ENGINES
from .common import ScenarioResult, format_table, run_scenario
from .minted import MINTED_COUNT, MINTED_SEED


@dataclass
class RaceStudy:
    """Both engines' results over one minted scenario set."""

    seed: int
    engines: tuple[str, ...]
    minted: list[MintedScenario]
    #: engine → per-scenario results, aligned with ``minted``.
    results: dict[str, list[ScenarioResult]]

    def winner_of(self, index: int) -> str:
        """The deterministic winner of one scenario's race (``""`` = none)."""
        legs = [
            (engine, self.results[engine][index])
            for engine in self.engines
            if self.results[engine][index].plausible
        ]
        if not legs:
            return ""
        return min(legs, key=lambda leg: (leg[1].eval_sims, leg[0]))[0]

    def by_family(self) -> dict[str, dict[str, object]]:
        """mutator family → per-engine totals and win counts (stable)."""
        out: dict[str, dict[str, object]] = {}
        for index, scenario in enumerate(self.minted):
            row = out.setdefault(
                scenario.mutator,
                {
                    "scenarios": 0,
                    "wins": {engine: 0 for engine in self.engines},
                    "engines": {
                        engine: {"plausible": 0, "eval_sims": 0}
                        for engine in self.engines
                    },
                },
            )
            row["scenarios"] += 1  # type: ignore[operator]
            winner = self.winner_of(index)
            if winner:
                row["wins"][winner] += 1  # type: ignore[index]
            for engine in self.engines:
                result = self.results[engine][index]
                stats = row["engines"][engine]  # type: ignore[index]
                stats["plausible"] += int(result.plausible)
                stats["eval_sims"] += result.eval_sims
        return dict(sorted(out.items()))

    def stable_text(self) -> str:
        """Byte-stable verdict table: no wall-clock anywhere."""
        body = []
        for family, row in self.by_family().items():
            cells = [family, str(row["scenarios"])]
            for engine in self.engines:
                stats = row["engines"][engine]  # type: ignore[index]
                cells.append(f"{stats['plausible']}/{row['scenarios']}")
                cells.append(str(stats["eval_sims"]))
            cells.append(
                " ".join(
                    f"{engine}:{row['wins'][engine]}"  # type: ignore[index]
                    for engine in self.engines
                )
            )
            body.append(cells)
        headers = ["Family", "Scenarios"]
        for engine in self.engines:
            headers.extend([f"{engine} plausible", f"{engine} eval_sims"])
        headers.append("Wins")
        return format_table(headers, body)

    def wall_clock_text(self) -> str:
        """Per-engine first-to-plausible wall-clock (measured, unstable)."""
        lines = []
        for engine in self.engines:
            legs = [r.repair_seconds for r in self.results[engine] if r.repair_seconds]
            total = sum(legs)  # type: ignore[arg-type]
            mean = total / len(legs) if legs else 0.0
            lines.append(
                f"  {engine:8s} first-to-plausible: {len(legs)} scenarios, "
                f"mean {mean:.2f}s, total {total:.2f}s"
            )
        return "\n".join(lines)


def run_engine_race(
    *,
    seed: int = MINTED_SEED,
    count: int = MINTED_COUNT,
    engines: tuple[str, ...] = RACE_ENGINES,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
) -> RaceStudy:
    """Mint a seeded scenario set and race every engine across it.

    Jobs are (scenario, engine) pairs, run in order; ``config.workers > 1``
    parallelises the candidate evaluations inside each leg, and the
    results are identical at every worker count.
    """
    minted = mint_scenarios(
        MintConfig(seed=seed, count=count, shrink_rejected=False)
    ).admitted
    config = config or GRADE_CONFIG
    results = {
        engine: [
            run_scenario(scenario.to_scenario(), config, seeds=seeds, engine=engine)
            for scenario in minted
        ]
        for engine in engines
    }
    return RaceStudy(seed=seed, engines=engines, minted=minted, results=results)


def main(preset: str = "smoke", workers: int | None = None) -> None:
    """Print the engine-race study; ``workers`` sets ``config.workers``."""
    del preset  # racing uses the grading budget (GRADE_CONFIG)
    print(
        f"Engine race (factory seed {MINTED_SEED}, {MINTED_COUNT} attempts): "
        "winner = plausible with fewest eval_sims"
    )
    study = run_engine_race(config=GRADE_CONFIG.scaled(workers=workers or 1))
    print(study.stable_text())
    print(study.wall_clock_text())


if __name__ == "__main__":  # pragma: no cover
    main()
