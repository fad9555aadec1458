"""Minted-scenario grading: auto-grade repair engines on factory defects.

The frozen Table 3 suite has 32 expert-transplanted defects; the mint
factory (:mod:`repro.mint`) supplies an unbounded, ground-truth-labeled
complement.  This experiment mints a seeded scenario set, grades one or
more registered engines on it, and reports per-defect-family repair,
plausibility, and ground-truth-match rates — the regression signal CI
watches to catch engine quality drift that the fixed suite cannot.
"""

from __future__ import annotations

from ..core.config import RepairConfig
from ..core.engines import DEFAULT_ENGINE
from ..mint import GRADE_CONFIG, GradeReport, MintConfig, grade_scenarios, mint_scenarios
from .common import format_table

#: Experiment-sized mint run: enough attempts to cover every mutator
#: family while keeping the grading sweep in CI territory.
MINTED_SEED = 0
MINTED_COUNT = 12


def run_minted_grading(
    *,
    seed: int = MINTED_SEED,
    count: int = MINTED_COUNT,
    engine: str = DEFAULT_ENGINE,
    config: RepairConfig | None = None,
    workers: int | None = None,
    seeds: tuple[int, ...] = (0,),
) -> GradeReport:
    """Mint a seeded scenario set and grade ``engine`` across it.

    ``workers > 1`` switches candidate evaluation to the process backend;
    the returned report's non-timing content is backend-independent.
    """
    minted = mint_scenarios(
        MintConfig(seed=seed, count=count, shrink_rejected=False)
    ).admitted
    config = config or GRADE_CONFIG
    if workers is not None and workers > 1:
        config = config.scaled(workers=workers, backend="process")
    return grade_scenarios(
        minted, seed=seed, engine=engine, config=config, seeds=seeds
    )


def run_minted_comparison(
    *,
    seed: int = MINTED_SEED,
    count: int = MINTED_COUNT,
    engines: tuple[str, ...] = ("cirfix", "synth"),
    config: RepairConfig | None = None,
    workers: int | None = None,
    seeds: tuple[int, ...] = (0,),
) -> dict[str, GradeReport]:
    """Grade every engine in ``engines`` on the *same* minted set."""
    return {
        engine: run_minted_grading(
            seed=seed, count=count, engine=engine, config=config,
            workers=workers, seeds=seeds,
        )
        for engine in engines
    }


def render_minted_comparison(reports: "dict[str, GradeReport]") -> str:
    """Render per-mutator grading rates with one column pair per engine."""
    engines = list(reports)
    by_mutator = {engine: reports[engine].by_mutator() for engine in engines}
    families = sorted({m for rates in by_mutator.values() for m in rates})
    body = []
    for family in families:
        totals = [
            by_mutator[engine].get(family, (0, 0, 0, 0))[0] for engine in engines
        ]
        row = [family, str(max(totals))]
        for engine in engines:
            total, plausible, _correct, truth = by_mutator[engine].get(
                family, (0, 0, 0, 0)
            )
            row.append(f"{plausible}/{total}")
            row.append(f"{truth}/{total}")
        body.append(row)
    headers = ["Mutator", "Scenarios"]
    for engine in engines:
        headers.extend([f"{engine} plausible", f"{engine} truth"])
    table = format_table(headers, body)
    lines = [table]
    for engine in engines:
        report = reports[engine]
        n = len(report.results)
        lines.append(
            f"overall ({engine}): plausible {report.plausible}/{n}"
            f"  correct {report.correct}/{n}"
            f"  ground-truth match {report.ground_truth_matches}/{n}"
        )
    return "\n".join(lines)


def main(preset: str = "smoke", workers: int | None = None) -> None:
    """Print the minted-scenario grading study, one column pair per engine."""
    del preset  # grading uses its own deterministic budget (GRADE_CONFIG)
    print(
        f"Minted-scenario grading (factory seed {MINTED_SEED}, "
        f"{MINTED_COUNT} attempts)"
    )
    reports = run_minted_comparison(workers=workers)
    print(render_minted_comparison(reports))


if __name__ == "__main__":  # pragma: no cover
    main()
