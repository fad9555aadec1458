"""End-to-end benchmark of the repair system: one entry point.

Runs each workload in its own fresh interpreter (``workloads.py``), so
imports and the package's process-wide caches start cold, checks the
outputs, prints every metric by name with its unit, and prints as its
last line one JSON object::

    {"correct": true, "attempted": 41, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload gp-table3 --seed 0 --seconds 25
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --out traced.json

Without ``--workload`` every workload runs, one after the other, and
metric names carry the workload as a prefix.  ``--trace 0`` reports the
end-to-end metrics (set-up is sampled SETUP_SAMPLES times and the median
reported); ``--trace 1`` wraps the layers (``tracer.py``) and reports
the per-layer metrics instead.  ``--out`` keeps the full result, per-job
outcomes included, for ``compare.py``.  The exit status is non-zero when
a job fails, an output check does not hold, or a workload overruns.

The bounded host times, ``setup_s`` and ``job_ms``, are scaled to one
reference host speed by a gauge that samples every CPU while the
workload runs (``gauge.py``); the unscaled times are printed beside them.
``rss_mb`` is the median resident set of the workload process over its
measured window, sampled from here every RSS_PERIOD_S.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from gauge import Gauge  # noqa: E402
from tracer import LAYER_METRICS, quantile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = (
    ("setup_s", "s"),
    ("job_ms", "ms"),
    ("rss_mb", "MiB"),
)

#: Printed beside the metrics, without a regression bound: the unscaled
#: host times, the host's speed (the gauge's mean reference time), the
#: peak resident set, and job latency quantiles, which move with the
#: jobs a seed draws.  ``compare.py`` compares the outcomes of runs at
#: one seed over the jobs both runs finished.
DIAGNOSTICS = (
    ("setup_raw_s", "s"),
    ("job_raw_ms", "ms"),
    ("ref_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
)
OUTCOMES = (
    ("jobs", "jobs"),
    ("plausible", "jobs"),
    ("correct", "jobs"),
    ("fitness_mean", "fitness"),
    ("error_rate", "fraction"),
)

#: Set-up samples per untraced run (the median is reported).
SETUP_SAMPLES = 3

#: Host seconds one workload may take beyond its measured window: set-up
#: samples, set-up of the measured process, and the output checks.
OVERHEAD_LIMIT_S = 120.0

#: Seconds between samples of the workload process's resident set.
RSS_PERIOD_S = 0.1


def _rss_mb(pid: int) -> float | None:
    """Resident set size (``VmRSS``) of process ``pid`` in MiB, or None
    once it has exited."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return None


def _spawn(extra: list[str], deadline: float, tag: str) -> dict:
    """Run ``workloads.py`` in a fresh interpreter; returns its result,
    with ``rss_samples``: ``(host time, MiB)`` of the child's resident
    set every RSS_PERIOD_S.

    The child gets its own process group, so a child that overruns
    ``deadline`` is killed together with any pool worker it started.
    Raises RuntimeError when the child fails or is killed.
    """
    # Relative to ROOT, where the child runs: the daemon's AF_UNIX
    # socket lives here, and its path must stay short.
    work = Path("benchmarks", "e2e", ".work", f"{os.getpid()}-{tag}")
    result_path = ROOT / work.with_suffix(".json")
    command = [
        sys.executable, str(HERE / "workloads.py"), *extra,
        "--work", str(work), "--result", str(result_path),
    ]
    rss: list[tuple[float, float]] = []
    proc = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        while True:
            try:
                code = proc.wait(timeout=RSS_PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() >= deadline:
                    code = "killed at the time limit"
                    break
            mb = _rss_mb(proc.pid)
            if mb is not None:
                rss.append((time.perf_counter(), mb))
        if code != 0:
            raise RuntimeError(f"{' '.join(extra)}: exit status {code}")
        return {**json.loads(result_path.read_text()), "rss_samples": rss}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(ROOT / work, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        try:
            result_path.parent.rmdir()
        except OSError:
            pass  # another spawn's files, or already gone


def _unscaled(start: float, end: float) -> float:
    return 1.0


def job_ms(jobs: list[dict], scale=_unscaled) -> float:
    """Ms per job, from call or submission to outcome.

    Each timed run of a job is multiplied by ``scale(start, end)``, and
    a job takes the median of its runs (a run count that moves with the
    host's speed then moves only the noise, not the value).  The result
    is the geometric mean over job classes of each class's median.
    Classes are scenarios, defect families, or how the daemon served a
    submission (cold, warm); combining per-class medians keeps the class
    mix one run finishes from moving the number.
    """
    per_class: dict[str, list[float]] = defaultdict(list)
    for job in jobs:
        runs = [(end - start) * scale(start, end) for start, end in job["timings"]]
        per_class[job["cls"]].append(1000.0 * statistics.median(runs))
    logs = [math.log(statistics.median(values)) for values in per_class.values()]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def end_to_end(result: dict, setups: list[dict], gauge: Gauge) -> dict[str, float]:
    """The end-to-end metrics and diagnostics of one workload.

    ``setups`` holds the result of every process that set the workload
    up, the measured one included; ``setup_s`` is their median.
    """
    latencies = [min(end - start for start, end in job["timings"]) for job in result["jobs"]]
    start, end = result["window_span"]
    return {
        "setup_s": statistics.median(s["setup_s"] * gauge.scale(*s["setup_span"]) for s in setups),
        "job_ms": job_ms(result["jobs"], gauge.scale),
        "rss_mb": statistics.median(mb for t, mb in result["rss_samples"] if start <= t <= end),
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "job_raw_ms": job_ms(result["jobs"]),
        "ref_ms": 1000.0 * gauge.ref_s(),
        "peak_rss_mb": result["peak_rss_mb"],
        "job_p50_s": quantile(latencies, 0.5),
        "job_p90_s": quantile(latencies, 0.9),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans: str | None) -> dict:
    """One workload: set-up samples (untraced) and one measured run,
    with the host speed gauge running throughout.

    A workload whose process fails or overruns comes back as a result
    with one error and no metrics.
    """
    deadline = time.monotonic() + seconds + OVERHEAD_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    extra = base + (["--trace"] if trace else [])
    if trace and spans:
        Path(spans).mkdir(parents=True, exist_ok=True)
        extra += ["--spans", str(Path(spans) / f"{name}-seed{seed}.jsonl")]
    with Gauge() as gauge:
        try:
            setups = []
            if not trace:
                for sample in range(SETUP_SAMPLES - 1):
                    setups.append(_spawn(base + ["--setup-only"], deadline, f"setup{sample}"))
            result = _spawn(extra, deadline, "run")
        except RuntimeError as exc:
            return {"jobs": [], "errors": [{"key": name, "error": str(exc)}], "problems": [str(exc)]}
    setups.append(result)
    result["setup_samples"] = [s["setup_s"] for s in setups]
    result["metrics"] = end_to_end(result, setups, gauge)
    return result


def report(results: dict, trace: bool) -> dict:
    """Print every metric and return the result line."""
    names = LAYER_METRICS if trace else END_TO_END
    metrics: dict = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for error in result["errors"]:
            print(f"{workload:15s} FAILED {error['key']}: {error['error']}")
        for line in result["problems"]:
            print(f"{workload:15s} FAILED {line}")
        if "metrics" not in result:
            continue
        source = result["layers"] if trace else result["metrics"]
        for name, unit in names:
            metrics[prefix + name] = {"value": source[name], "unit": unit}
            print(f"{workload:15s} {name:24s} {source[name]:14.6g} {unit}")
        for name, unit in DIAGNOSTICS:
            print(f"{workload:15s} {name:24s} {result['metrics'][name]:14.6g} {unit}")
        for name, unit in OUTCOMES:
            print(f"{workload:15s} {name:24s} {result['outcomes'][name]:14.6g} {unit}")
        if "mint_digest" in result:
            print(f"{workload:15s} {'mint_s':24s} {result['mint_s']:14.6g} s")
            print(f"{workload:15s} {'mint_digest':24s} {result['mint_digest']:>14s} "
                  f"({result['minted']} admitted)")
        print(f"{workload:15s} {'store.put_failed':24s} {result['store_put_failed']:14d} count")
    return {
        "correct": not any(result["problems"] for result in results.values()),
        "attempted": sum(len(r["jobs"]) + len(r["errors"]) for r in results.values()),
        "failed": sum(len(r["errors"]) for r in results.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host seconds each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--out", help="write the full result (JSON) here")
    parser.add_argument("--spans", help="traced runs: write each workload's spans to this directory")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no package source at {ROOT / 'src' / 'repro'}: run from a repository checkout")
    # Terminated from outside: unwind, so _spawn kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {
        name: run_workload(name, args.seed, args.seconds, trace, args.spans) for name in names
    }
    line = report(results, trace)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": trace, "workloads": results}
        ) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
