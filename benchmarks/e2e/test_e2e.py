"""Tests of the benchmark's own arithmetic: span self time and verdicts.

Run with ``pytest benchmarks/e2e -q``.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


def _span(id, parent, layer, start, end, job="j"):
    return Span(id, parent, job, layer, float(start), float(end))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, "job", 0, 10),
        _span(2, 1, "engine.run", 1, 4),
        _span(3, 2, "sim.run", 2, 3),
        _span(4, 1, "sim.run", 5, 9),
    ]
    assert tracer.self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert tracer.layer_self_seconds(spans) == {"job": 3.0, "engine.run": 2.0, "sim.run": 5.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(1, None, "job", 0, 5),
        _span(2, 1, "a", 1, 4),
        _span(3, 1, "b", 3, 6),
    ]
    assert tracer.self_times(spans)[1] == pytest.approx(1.0)


def test_self_time_of_interleaved_threads_subtracts_only_own_children():
    # Two job threads overlap in time; each job's child lies inside the
    # other job's interval too, but only its own parent loses the time.
    spans = [
        _span(1, None, "job", 0, 10, job="a"),
        _span(2, 1, "sim.run", 2, 6, job="a"),
        _span(3, None, "job", 1, 8, job="b"),
        _span(4, 3, "sim.run", 3, 7, job="b"),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[3] == pytest.approx(3.0)
    assert tracer.layer_self_seconds(spans)["sim.run"] == pytest.approx(8.0)


def test_tracer_keeps_one_stack_per_thread():
    t = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def work(job_id: str) -> None:
        with t.job(job_id):
            with t.span("engine.run"):
                both_inside.wait()
                with t.span("sim.run"):
                    pass

    threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.id: span for span in t.spans}
    assert len(t.spans) == 6
    for span in t.spans:
        if span.layer == "job":
            assert span.parent is None
            continue
        parent = by_id[span.parent]
        assert parent.job == span.job
        assert parent.layer == {"engine.run": "job", "sim.run": "engine.run"}[span.layer]
    assert sorted(span.job for span in t.spans) == ["a"] * 3 + ["b"] * 3


def test_wrap_records_span_and_runs_after_hook():
    t = Tracer()
    seen = []
    wrapped = t.wrap("patch.apply", lambda x: x + 1, after=lambda tr, r, a: seen.append((r, a)))
    with t.job("k"):
        assert wrapped(1) == 2
    assert seen == [(2, (1,))]
    layers = [(span.layer, span.job) for span in t.spans]
    assert layers == [("patch.apply", "k"), ("job", "k")]


def test_layer_metrics_report_every_layer_metric_and_unattributed_time():
    t = Tracer()
    t.spans = [
        _span(1, None, "job", 0, 10),
        _span(2, 1, "patch.apply", 1, 3),
        _span(3, 1, "backend.batch", 4, 9),
        _span(4, 3, "sim.run", 5, 8),
    ]
    metrics = tracer.layer_metrics(t, window_s=10.0)
    assert set(metrics) == {name for name, _ in tracer.LAYER_METRICS}
    assert metrics["patch.apply_s"] == 2.0
    assert metrics["backend.batch_s"] == 5.0
    assert metrics["backend.self_s"] == 2.0
    assert metrics["sim.run_s"] == 3.0
    assert metrics["trace.unattributed_s"] == 3.0
    assert metrics["trace.unattributed_pct"] == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------

STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0, 10.0]


def _scaled(values, factor):
    return [v * factor for v in values]


def test_verdict_unchanged_within_bound():
    assert compare.verdict(STEADY, _scaled(STEADY, 1.05), "lower", 0.1) == "unchanged"


def test_verdict_worse_beyond_bound():
    assert compare.verdict(STEADY, _scaled(STEADY, 1.2), "lower", 0.1) == "worse"
    assert compare.verdict(STEADY, _scaled(STEADY, 0.8), "higher", 0.1) == "worse"


def test_verdict_better_beyond_bound():
    assert compare.verdict(STEADY, _scaled(STEADY, 0.8), "lower", 0.1) == "better"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    noisy = [6.0, 8.0, 10.0, 12.0, 14.0, 7.0, 9.0, 11.0, 13.0, 10.0]
    assert compare.verdict(noisy, _scaled(noisy, 1.3), "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, _scaled(noisy, 0.95), "lower", 0.1) == "unresolved"
    # Every change run better than every parent run resolves it.
    assert compare.verdict(noisy, [5.0] * 10, "lower", 0.1) == "better"


def _run(seed, jobs, digest=None, errors=()):
    result = {"seed": seed, "jobs": jobs, "errors": [{"key": k, "error": "x"} for k in errors]}
    if digest is not None:
        result["mint_digest"] = digest
    return result


def _job(key, plausible=True, fitness=1.0, eval_sims=10, sha="abc", correct=True):
    return {"key": key, "plausible": plausible, "fitness": fitness,
            "eval_sims": eval_sims, "repaired_sha": sha, "correct": correct}


def test_outcome_aggregates_cover_jobs_both_sides_attempted():
    parent = [_run(0, [_job("a"), _job("b", plausible=False, fitness=0.5, correct=False)])]
    change = [_run(0, [_job("a"), _job("b"), _job("c")])]
    aggregates = compare.outcome_aggregates(parent, change)
    assert aggregates["plausible"] == (1, 2)
    assert aggregates["correct"] == (1, 2)
    assert aggregates["fitness_mean"] == (0.75, 1.0)
    assert aggregates["error_rate"] == (0.0, 0.0)


def test_exact_verdicts_follow_the_metric_direction():
    parent = [_run(0, [_job("a"), _job("b")])]
    change = [_run(0, [_job("a")], errors=["b"])]
    aggregates = compare.outcome_aggregates(parent, change)
    assert aggregates["error_rate"] == (0.0, 0.5)
    assert aggregates["fitness_mean"] == (1.0, 0.5)
    assert compare.exact_verdict(*aggregates["error_rate"], "lower") == "worse"
    assert compare.exact_verdict(*aggregates["plausible"], "higher") == "worse"
    assert compare.exact_verdict(2, 3, "higher") == "better"
    assert compare.exact_verdict(0.1, 0.0, "lower") == "better"
    assert compare.exact_verdict(4, 4, "higher") == "same"


def test_identity_compares_common_keys_only():
    parent = [_run(0, [_job("a"), _job("b")])]
    change = [_run(0, [_job("a"), _job("c", plausible=False)])]
    assert compare.identity_problems(parent, change) == []


def test_identity_reports_an_exact_count_mismatch():
    parent = [_run(0, [_job("a", eval_sims=10)]), _run(1, [_job("a", eval_sims=12)])]
    change = [_run(0, [_job("a", eval_sims=11)]), _run(1, [_job("a", eval_sims=12)])]
    problems = compare.identity_problems(parent, change)
    assert len(problems) == 1 and problems[0].startswith("seed 0 a:")
    minted = compare.identity_problems([_run(0, [], "d1")], [_run(0, [], "d2")])
    assert minted == ["seed 0: minted scenarios differ"]


def test_claim_needs_nine_of_ten_pairs():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    nine = [9.0] * 9 + [10.5]
    eight = [9.0] * 8 + [10.5, 10.5]
    assert compare.pairs_won(parent, nine, "lower") == (9, 10)
    assert compare.claim_met(parent, nine, "lower")
    assert compare.pairs_won(parent, eight, "lower") == (8, 10)
    assert not compare.claim_met(parent, eight, "lower")


def test_ties_count_for_neither_side():
    assert compare.pairs_won([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower") == (1, 3)


def test_claim_needs_median_gap_beyond_parent_spread():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    slightly = [p - 0.1 for p in parent]
    assert compare.pairs_won(parent, slightly, "lower") == (10, 10)
    assert not compare.claim_met(parent, slightly, "lower")


# ----------------------------------------------------------------------
# Timed phase: replays and per-class medians
# ----------------------------------------------------------------------


class _Outcome:
    def __init__(self, fitness):
        self.plausible = False
        self.fitness = fitness
        self.eval_sims = 4
        self.repaired_source = None


def _plan(fitness_of_run):
    """Jobs ``k0 .. k4`` whose n-th run returns ``fitness_of_run(key, n)``."""
    runs = {}

    def make(key):
        def call(cancel):
            runs[key] = runs.get(key, 0) + 1
            time.sleep(0.01)
            return _Outcome(fitness_of_run(key, runs[key]))

        return call

    return [(f"c{index % 2}", f"k{index}", make(f"k{index}")) for index in range(5)]


def test_run_direct_replays_the_jobs_and_times_every_run():
    jobs, errors, problems, _ = workloads.run_direct(
        _plan(lambda key, n: 0.5), time.monotonic() + 0.4
    )
    assert errors == [] and problems == []
    assert [job.key for job in jobs] == ["k0", "k1", "k2", "k3", "k4"]
    assert len(jobs[0].timings) >= 2
    assert all(end - start >= 0.01 for job in jobs for start, end in job.timings)


def test_run_direct_reports_a_replay_that_changes_the_outcome():
    _, _, problems, _ = workloads.run_direct(
        _plan(lambda key, n: 0.5 if n == 1 else 0.25), time.monotonic() + 0.4
    )
    assert problems and "run 2" in problems[0]


def _timed(cls, *runs_ms, start=100.0):
    timings = []
    for ms in runs_ms:
        timings.append([start, start + ms / 1000.0])
        start += 1.0
    return {"cls": cls, "timings": timings}


def test_job_ms_takes_each_class_median_then_the_geometric_mean():
    jobs = [_timed("a", 10), _timed("a", 20), _timed("a", 1000), _timed("b", 40)]
    assert run.job_ms(jobs) == pytest.approx((20 * 40) ** 0.5)


def test_job_ms_scales_each_run_and_takes_their_median():
    # The second run is slower on the clock but ran while the host was
    # at half speed: scaled, it reads 20 ms.
    jobs = [_timed("a", 30, 40, start=0.0)]

    def scale(start, end):
        return 1.0 if start < 0.5 else 0.5

    assert run.job_ms(jobs) == pytest.approx(35.0)
    assert run.job_ms(jobs, scale) == pytest.approx(25.0)


def test_each_job_of_a_run_gets_its_own_trial_seed():
    seeds = workloads._trial_seeds(3, 22)
    assert len(set(seeds)) == 22
    assert seeds == workloads._trial_seeds(3, 22)
    assert seeds != workloads._trial_seeds(4, 22)


# ----------------------------------------------------------------------
# Host speed gauge
# ----------------------------------------------------------------------


def _gauge(samples):
    g = gauge.Gauge(cpus=sorted({cpu for _, cpu, _ in samples}))
    g.samples = list(samples)
    return g


def test_gauge_scale_averages_each_cpus_median_near_the_interval():
    ref = gauge.REF_S
    samples = [
        (10.0, 0, ref), (10.2, 0, ref), (10.4, 0, 3 * ref),  # CPU 0 median: ref
        (10.1, 1, 2 * ref), (10.3, 1, 2 * ref),  # CPU 1 median: 2 ref
        (50.0, 0, 9 * ref), (50.1, 1, 9 * ref),  # far away: left out
    ]
    g = _gauge(samples)
    assert g.ref_s(10.0, 10.4) == pytest.approx(1.5 * ref)
    assert g.scale(10.1, 10.3) == pytest.approx(1 / 1.5)


def test_gauge_widens_the_window_until_every_cpu_has_a_sample():
    ref = gauge.REF_S
    g = _gauge([(10.0, 0, ref), (10.1, 0, ref), (20.0, 1, 3 * ref)])
    assert g.scale(10.0, 10.1) == pytest.approx(0.5)


def test_gauge_samples_each_cpu_in_turn_and_stops():
    cpus = sorted(os.sched_getaffinity(0))
    with gauge.Gauge() as g:
        time.sleep(gauge.PERIOD_S * (2 * len(cpus) + 1))
    assert not g._thread.is_alive()
    assert {cpu for _, cpu, _ in g.samples} == set(cpus)
    assert all(seconds > 0 for _, _, seconds in g.samples)
    assert os.sched_getaffinity(0) == set(cpus)  # the caller stays unpinned


# ----------------------------------------------------------------------
# The benchmark definition matches what the runner reports
# ----------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
