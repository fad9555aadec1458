"""Compare benchmark runs of a parent commit and a change.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR \\
        [--claim job_ms@race-minted] [--same-outcomes]

Each directory holds the ``--out`` files of untraced ``run.py`` runs
(one per run, any number of workloads each).  For every workload, in
its own rows, and every end-to-end metric of ``BENCHMARK.json`` the
script prints each side's median and quartiles and a verdict:

- ``worse`` / ``better``: the change's median differs from the parent's
  by more than the metric's bound, in that direction;
- ``unchanged``: within the bound;
- ``unresolved``: the parent's own spread (distance between its
  quartiles, as a share of its median) is wider than the bound, unless
  every change run reads better than every parent run (then ``better``).

Outcomes compare exactly, over the jobs both sides attempted at the same
seed (runs are time-boxed, so each side finishes a different number):
``plausible`` and ``correct`` (jobs), ``fitness_mean`` (a job that
raised counts as fitness 0) and ``error_rate`` each read ``same``,
``better`` or ``worse``.  With ``--same-outcomes``, for a change that
claims to keep every outcome, each common job must also return the
parent's outcome (plausible, fitness, eval_sims, repaired source), and
race-minted must mint the same scenarios.

A ``--claim METRIC@WORKLOAD`` also prints the pairs the change won out
of the pairs run (runs paired in seed order, ties counting for neither
side); the claim is met when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's spread.  The
exit status is non-zero on a ``worse`` verdict, a broken
``--same-outcomes`` promise or a claim not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import outcome_tuple  # noqa: E402

#: Outcome aggregates compared exactly, and which way is better.
OUTCOME_METRICS = (
    ("plausible", "higher"),
    ("correct", "higher"),
    ("fitness_mean", "higher"),
    ("error_rate", "lower"),
)


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def load_runs(directory: str) -> dict[str, list[dict]]:
    """Workload → its untraced run results, in (seed, file name) order."""
    runs: dict[str, list[tuple]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("trace"):
            continue
        for workload, result in data["workloads"].items():
            runs[workload].append((data["seed"], path.name, {**result, "seed": data["seed"]}))
    return {w: [r for _, _, r in sorted(items, key=lambda t: t[:2])] for w, items in runs.items()}


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` reads than ``parent``, as a share of it."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (change - parent) / parent


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict for one (metric, workload) pair (module docstring)."""
    p, c = summarize(parent), summarize(change)
    spread = (p["q3"] - p["q1"]) / p["median"]
    every_run_better = all(_worse_by(x, y, better) < 0 for x in parent for y in change)
    if spread > bound:
        return "better" if every_run_better else "unresolved"
    worse = _worse_by(p["median"], c["median"], better)
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "unchanged"


def _outcomes_by_seed(runs: list[dict]) -> dict[int, dict[str, dict | None]]:
    """Seed → job key → the job's outcome, or None for a job that raised."""
    by_seed: dict[int, dict[str, dict | None]] = defaultdict(dict)
    for result in runs:
        outcomes = by_seed[result["seed"]]
        for error in result["errors"]:
            outcomes.setdefault(error["key"], None)
        for job in result["jobs"]:
            outcomes[job["key"]] = job
    return by_seed


def outcome_aggregates(parent: list[dict], change: list[dict]) -> dict[str, tuple[float, float]]:
    """Metric → (parent, change) over the jobs both sides attempted per seed."""
    sides = (_outcomes_by_seed(parent), _outcomes_by_seed(change))
    totals = [defaultdict(float), defaultdict(float)]
    common = 0
    for seed in sorted(set(sides[0]) & set(sides[1])):
        keys = sorted(set(sides[0][seed]) & set(sides[1][seed]))
        common += len(keys)
        for side, total in zip(sides, totals):
            for key in keys:
                job = side[seed][key]
                if job is None:
                    total["error_rate"] += 1
                    continue
                total["plausible"] += job["plausible"]
                total["correct"] += job["correct"]
                total["fitness_mean"] += job["fitness"]
    aggregates = {}
    for name, _ in OUTCOME_METRICS:
        values = [total[name] for total in totals]
        if name in ("fitness_mean", "error_rate"):
            values = [value / common if common else 0.0 for value in values]
        aggregates[name] = (values[0], values[1])
    return aggregates


def exact_verdict(parent: float, change: float, better: str) -> str:
    """``same``, ``better`` or ``worse`` for an exactly compared outcome."""
    if change == parent:
        return "same"
    return "better" if (change < parent) == (better == "lower") else "worse"


def identity_problems(parent: list[dict], change: list[dict]) -> list[str]:
    """Common jobs whose outcome differs between the sides, per seed."""
    problems = []
    sides = (_outcomes_by_seed(parent), _outcomes_by_seed(change))
    for seed in sorted(set(sides[0]) & set(sides[1])):
        for key in sorted(set(sides[0][seed]) & set(sides[1][seed])):
            mine, theirs = (side[seed][key] for side in sides)
            mine = None if mine is None else outcome_tuple(mine)
            theirs = None if theirs is None else outcome_tuple(theirs)
            if mine != theirs:
                problems.append(f"seed {seed} {key}: parent {mine} != change {theirs}")
    digests = {(r["seed"], r.get("mint_digest")) for r in parent}
    for result in change:
        for seed, digest in digests:
            if seed == result["seed"] and digest != result.get("mint_digest"):
                problems.append(f"seed {seed}: minted scenarios differ")
    return sorted(set(problems))


def pairs_won(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """(pairs the change won, pairs run); a tie counts for neither side."""
    pairs = list(zip(parent, change))
    return sum(_worse_by(p, c, better) < 0 for p, c in pairs), len(pairs)


def claim_met(parent: list[float], change: list[float], better: str) -> bool:
    """Wins in at least 9 of 10 pairs and a median gap beyond the parent's spread."""
    won, run = pairs_won(parent, change, better)
    p, c = summarize(parent), summarize(change)
    gap = -_worse_by(p["median"], c["median"], better) * p["median"]
    return run > 0 and won >= 0.9 * run and gap > p["q3"] - p["q1"]


def _fmt(stats: dict) -> str:
    return f"{stats['median']:10.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    parser.add_argument("--same-outcomes", action="store_true",
                        help="every common job must return the parent's outcome")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    failed = False
    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs = [r for r in parent[workload] if "metrics" in r]
        c_runs = [r for r in change[workload] if "metrics" in r]
        if p_runs and c_runs:
            for name, metric in metrics.items():
                p_vals = [r["metrics"][name] for r in p_runs]
                c_vals = [r["metrics"][name] for r in c_runs]
                result = verdict(p_vals, c_vals, metric["better"], metric["bound"])
                failed |= result == "worse"
                print(f"{workload:15s} {name:12s} {_fmt(summarize(p_vals)):>34s} "
                      f"{_fmt(summarize(c_vals)):>34s}  {result}")
        aggregates = outcome_aggregates(parent[workload], change[workload])
        for name, better in OUTCOME_METRICS:
            p_val, c_val = aggregates[name]
            result = exact_verdict(p_val, c_val, better)
            failed |= result == "worse"
            print(f"{workload:15s} {name:12s} {p_val:>34.6g} {c_val:>34.6g}  {result}")
        problems = identity_problems(parent[workload], change[workload])
        failed |= args.same_outcomes and bool(problems)
        print(f"{workload:15s} {'same jobs':12s} {'':>34s} {len(problems):>23d} differ  "
              f"{'differ' if problems else 'same'}")
        for problem in problems if args.same_outcomes else ():
            print(f"{'':15s} {problem}")
    for claim in args.claim:
        name, _, workload = claim.partition("@")
        better = metrics[name]["better"]
        p_vals = [r["metrics"][name] for r in parent[workload] if "metrics" in r]
        c_vals = [r["metrics"][name] for r in change[workload] if "metrics" in r]
        won, run = pairs_won(p_vals, c_vals, better)
        met = claim_met(p_vals, c_vals, better)
        failed |= not met
        print(f"claim {claim}: {won}/{run} pairs won; medians {statistics.median(p_vals):.4g} "
              f"-> {statistics.median(c_vals):.4g}: {'met' if met else 'not met'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
