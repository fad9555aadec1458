"""CLI entry point: ``python -m repro.experiments <experiment> [--preset p]``."""

from __future__ import annotations

import argparse
from pathlib import Path

from . import (
    ext_templates,
    figure2,
    figure3,
    fixloc_ablation,
    minted,
    param_sensitivity,
    phi_ablation,
    rq1,
    rq2,
    rq3,
    rq4,
    runtime_analysis,
    seeded_defects,
    table2,
    table3,
)

EXPERIMENTS = {
    "table2": lambda ctx: table2.main(),
    "table3": lambda ctx: table3.main(
        ctx.preset, workers=ctx.workers, trace_dir=ctx.trace_dir
    ),
    "figure2": lambda ctx: figure2.main(),
    "figure3": lambda ctx: figure3.main(),
    "rq1": lambda ctx: rq1.main(
        ctx.preset, workers=ctx.workers, trace_dir=ctx.trace_dir
    ),
    "rq2": lambda ctx: rq2.main(ctx.preset),
    "rq3": lambda ctx: rq3.main(),
    "rq4": lambda ctx: rq4.main(ctx.preset),
    "fixloc": lambda ctx: fixloc_ablation.main(),
    "phi": lambda ctx: phi_ablation.main(),
    "ext-templates": lambda ctx: ext_templates.main(ctx.preset),
    "param-sensitivity": lambda ctx: param_sensitivity.main(ctx.preset),
    "runtime": lambda ctx: runtime_analysis.main(ctx.preset),
    "seeded": lambda ctx: seeded_defects.main(ctx.preset),
    "minted": lambda ctx: minted.main(ctx.preset, workers=ctx.workers),
}


def main() -> None:
    """CLI entry point for the experiment harness."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the CirFix paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--preset",
        choices=["smoke", "quick", "full"],
        default="quick",
        help="search budget preset (default: quick)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="candidate-evaluation worker processes inside each scenario "
        "(table3/rq1/minted; default serial)",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="write one repro.obs JSONL trace per scenario here (table3/rq1); "
        "per-experiment subdirectories are created automatically",
    )
    args = parser.parse_args()
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        ctx = argparse.Namespace(
            preset=args.preset,
            workers=args.workers,
            trace_dir=(args.trace_dir / name) if args.trace_dir is not None else None,
        )
        EXPERIMENTS[name](ctx)
        print()


if __name__ == "__main__":
    main()
