"""Benchmark: escalation (``race``) against its two legs on minted defects.

Grades ``cirfix`` (GP), ``synth`` (template synthesis) and ``race``
(synth first, GP only when synth finds no plausible repair) with
:func:`~repro.mint.grade_scenarios` over the fixed-seed minted scenario
set, on the serial *and* the process evaluation backend, and writes the
raw numbers to ``BENCH_engine_race.json`` at the repo root:

- ``stable``: per-family plausible counts and ``eval_sims`` per engine,
  plus each engine's grading summary — the backend-independent block,
  asserted byte-identical across serial and process backends;
- ``wall_clock``: per-engine grading wall seconds (host- and
  backend-dependent, recorded outside the stable block).

Assertions: on the defect families the synth templates invert directly
(``stuck_constant``, ``wrong_operator``, ``negate_condition``), synth
reaches a plausible repair and spends fewer ``eval_sims`` than GP at the
same seed; and every scenario's race row is synth's row when synth is
plausible, and otherwise the row the tie rule picks (GP's unless synth
scored strictly higher).
"""

import json
import os
import time
from pathlib import Path

from repro.mint import GRADE_CONFIG, MintConfig, grade_scenarios, mint_scenarios

_REPO_ROOT = Path(__file__).resolve().parents[1]

SEED = 0
MINT_ATTEMPTS = 20
ENGINES = ("cirfix", "synth", "race")
#: Families the synth catalog inverts one-for-one; synth must win these.
SYNTH_FAMILIES = ("stuck_constant", "wrong_operator", "negate_condition")


def _grade(minted, config) -> tuple[dict, dict]:
    """engine → its GradeReport, and engine → its grading wall seconds."""
    reports, seconds = {}, {}
    for engine in ENGINES:
        started = time.monotonic()
        reports[engine] = grade_scenarios(
            minted, seed=SEED, engine=engine, config=config
        )
        seconds[engine] = time.monotonic() - started
    return reports, seconds


def _stable(reports: dict) -> dict:
    """The backend-independent block (no wall-clock anywhere)."""
    families: dict = {}
    for engine, report in reports.items():
        for row in report.results:
            stats = families.setdefault(row.mutator, {}).setdefault(
                engine, {"scenarios": 0, "plausible": 0, "eval_sims": 0}
            )
            stats["scenarios"] += 1
            stats["plausible"] += row.plausible
            stats["eval_sims"] += row.eval_sims
    return {
        "engines": list(reports),
        "by_family": dict(sorted(families.items())),
        "summaries": {
            engine: report.to_text().splitlines()
            for engine, report in reports.items()
        },
    }


def test_engine_race(once):
    minted = mint_scenarios(
        MintConfig(seed=SEED, count=MINT_ATTEMPTS, shrink_rejected=False)
    ).admitted

    def sweep():
        serial, serial_seconds = _grade(minted, GRADE_CONFIG)
        process, process_seconds = _grade(
            minted, GRADE_CONFIG.scaled(workers=2, backend="process")
        )
        stable = _stable(serial)
        assert stable == _stable(process), "grading diverged by backend"
        return serial, {
            "stable": stable,
            "wall_clock": {
                "serial": serial_seconds,
                "process": process_seconds,
            },
        }

    reports, results = once(sweep)
    results = {
        "seed": SEED,
        "attempts": MINT_ATTEMPTS,
        "cpu_count": os.cpu_count(),
        **results,
    }
    (_REPO_ROOT / "BENCH_engine_race.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    families = results["stable"]["by_family"]
    for family in SYNTH_FAMILIES:
        assert family in families, f"seed {SEED} minted no {family} scenarios"
        row = families[family]
        synth, cirfix = row["synth"], row["cirfix"]
        assert synth["plausible"] >= 1, (family, row)
        assert synth["eval_sims"] < cirfix["eval_sims"], (family, row)

    for gp, synth, race in zip(*(reports[engine].results for engine in ENGINES)):
        expected = synth if synth.plausible or synth.fitness > gp.fitness else gp
        assert race == expected, race.scenario_id
