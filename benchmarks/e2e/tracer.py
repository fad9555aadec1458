"""Outside-in layer trace for the end-to-end benchmark.

The traced run wraps each layer's public function at the place the
layer above calls it (a module attribute or a class attribute), so no
code of the package changes.  Every wrapped call records one span
``{id, parent, job, layer, start, end}``; spans stay in memory and are
reduced to per-layer metrics when the run ends.  Each thread keeps its
own span stack, because the daemon runs two job threads at once.

A layer's *self time* is its span time minus the part of the span that
its child spans cover; summed per layer, the self times of one job
partition the job's wall time, and what no layer covers is reported as
``trace.unattributed_s``.

Forked pool workers inherit the wrappers but keep no spans (they are
lost with the child's memory); their layer times come from the
``CandidateResult`` fields the workers already return.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    job: str | None
    layer: str
    start: float
    end: float


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, job: str | None = None):
        """Record one span; ``job`` names the job for it and its children."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, job))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent[0] if parent else None, job, layer, start, end)
            )

    def job(self, job_id: str):
        """The top-level span of one job."""
        return self.span("job", job=job_id)

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    def wrap(self, layer: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording a ``layer`` span per call.

        ``after(tracer, result, args)`` runs once the call returned.  In a
        forked child (a pool worker) the wrapper calls ``fn`` directly.
        """
        span = self.span

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            with span(layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result

        return traced


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Layer → summed self time of its spans."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.id]
    return dict(totals)


# ----------------------------------------------------------------------
# Hooks: (module, attribute path, layer, after-hook)
# ----------------------------------------------------------------------


def _count_calls(name: str):
    def after(tracer: Tracer, result, args) -> None:
        tracer.add(name)

    return after


def _after_engine_run(tracer: Tracer, outcome, args) -> None:
    engine = args[0]
    tracer.add("engine.trials")
    tracer.add("engine.eval_sims", engine.eval_sims)
    tracer.add("engine.resims", engine.simulations - engine.eval_sims)


def _add_result_fields(tracer: Tracer, result) -> None:
    tracer.add("eval.calls")
    tracer.add("eval.compile_failed", not result.compiled)
    tracer.add("eval.frontend_s", result.parse_seconds)
    tracer.add("eval.sim_fit_s", result.sim_seconds)
    tracer.add("sim.events", result.sim_events)
    tracer.add("sim.steps", result.sim_steps)


def _after_evaluate(tracer: Tracer, result, args) -> None:
    _add_result_fields(tracer, result)


def _after_cache_get(tracer: Tracer, result, args) -> None:
    lookups = getattr(tracer._local, "lookups", None)
    if lookups is not None:
        lookups.append(result is None)


def _traced_cache_get(tracer: Tracer, fn: Callable) -> Callable:
    """``EvalCache.get`` counting memory-tier hits (disk hits are ``store.*``)."""

    def get(cache, design_text):
        store_hits = cache.store_hits
        result = fn(cache, design_text)
        if result is not None and cache.store_hits == store_hits:
            tracer.add("cache.mem_hits")
        else:
            tracer.add("cache.mem_misses")
        return result

    return tracer.wrap("cache.get", get, after=_after_cache_get)


def _traced_batch(tracer: Tracer, fn: Callable) -> Callable:
    """``*Backend.evaluate_batch``; pool batches also sum worker-side fields.

    The cache lookups the batch makes are noted in order, so the results
    the pool computed (the misses) can be told from replayed ones.
    """

    def evaluate_batch(backend, design_texts):
        local = tracer._local
        outer, local.lookups = getattr(local, "lookups", None), []
        started = time.perf_counter()
        try:
            results = fn(backend, design_texts)
        finally:
            misses, local.lookups = local.lookups, outer
        tracer.add("backend.batches")
        tracer.add("backend.cands", len(design_texts))
        workers = getattr(backend, "workers", None)
        if workers is not None:
            tracer.add("pool.capacity_s", (time.perf_counter() - started) * workers)
            for result, missed in zip(results, misses):
                if not missed:
                    continue
                if result.failure is not None:
                    tracer.add("pool.quarantined")
                    continue
                tracer.add("pool.worker_busy_s", result.eval_seconds)
                _add_result_fields(tracer, result)
        return results

    return tracer.wrap("backend.batch", evaluate_batch)


def _counted_take_incidents(tracer: Tracer, fn: Callable) -> Callable:
    """``ProcessPoolBackend.take_incidents`` counting requeued candidates."""

    def take_incidents(backend):
        incidents = fn(backend)
        tracer.add("pool.requeued", sum(not i.quarantined for i in incidents))
        return incidents

    return take_incidents


def _after_store_get(tracer: Tracer, payload, args) -> None:
    tracer.add("store.get_calls")
    tracer.add("store.hits" if payload is not None else "store.misses")


def _after_store_put(tracer: Tracer, result, args) -> None:
    store, key = args[0], args[1]
    tracer.add("store.put_calls")
    try:
        tracer.add("store.bytes_written", store._path(key).stat().st_size)
    except OSError:
        pass


def _after_instantiate(tracer: Tracer, candidates, args) -> None:
    tracer.add("synth.candidates", len(candidates))


def _traced_run_job(tracer: Tracer, fn: Callable) -> Callable:
    """``RepairDaemon._run_job`` as a job span named by the job id."""

    def run_job(daemon, job, runtime):
        with tracer.job(job.job_id):
            return fn(daemon, job, runtime)

    return run_job


#: Every wrapped call site.  The layer names are the metric prefixes.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.api", "materialize_request", "api.problem", None),
    ("repro.benchsuite.scenario", "Scenario.problem", "api.problem", None),
    ("repro.benchsuite.scenario", "Scenario.suggested_config", "api.problem", None),
    ("repro.core.harness", "EngineHarness.run", "engine.run", _after_engine_run),
    ("repro.core.harness", "EngineHarness.fault_localization", "engine.localize", None),
    ("repro.core.harness", "minimize_patch", "engine.minimize", None),
    ("repro.core.patch", "Patch.apply", "patch.apply", _count_calls("patch.apply_calls")),
    ("repro.core.harness", "generate", "hdl.codegen", _count_calls("hdl.codegen_calls")),
    ("repro.core.backend", "parse", "hdl.parse", _count_calls("hdl.parse_calls")),
    ("repro.core.harness", "lint_tree", "lint.gate", _count_calls("lint.gate_calls")),
    ("repro.core.harness", "evaluate_design_text", "eval", _after_evaluate),
    ("repro.core.backend", "evaluate_design_text", "eval", _after_evaluate),
    ("repro.core.backend", "Simulator", "sim.build", None),
    ("repro.core.backend", "CompiledSimulator", "sim.build", None),
    ("repro.sim.simulator", "Simulator.run", "sim.run", _count_calls("sim.run_calls")),
    ("repro.instrument.trace", "SimulationTrace.from_records", "trace.decode", None),
    ("repro.core.backend", "output_mismatch", "trace.mismatch", None),
    ("repro.core.harness", "output_mismatch", "trace.mismatch", None),
    ("repro.synth.engine", "output_mismatch", "trace.mismatch", None),
    ("repro.core.backend", "evaluate_fitness", "fitness", _count_calls("fitness.calls")),
    ("repro.core.harness", "localize_faults", "faultloc", _count_calls("faultloc.calls")),
    ("repro.synth.engine", "mine_literals", "synth.mine", None),
    ("repro.cache.store", "PersistentEvalCache.get", "store.get", _after_store_get),
    ("repro.cache.store", "PersistentEvalCache.put", "store.put", _after_store_put),
    ("repro.service.journal", "JobJournal.record_admitted", "journal", None),
    ("repro.service.journal", "JobJournal.record_started", "journal", None),
    ("repro.service.journal", "JobJournal.record_completed", "journal", None),
    ("repro.service.journal", "JobJournal.save_checkpoint", "checkpoint", None),
)

#: Hooks whose wrapper needs more than a span and an after-hook.
CUSTOM_HOOKS: tuple[tuple[str, str, Callable], ...] = (
    ("repro.core.backend", "EvalCache.get", _traced_cache_get),
    ("repro.core.backend", "SerialBackend.evaluate_batch", _traced_batch),
    ("repro.core.backend", "ProcessPoolBackend.evaluate_batch", _traced_batch),
    ("repro.core.backend", "ProcessPoolBackend.take_incidents", _counted_take_incidents),
    ("repro.service.daemon", "RepairDaemon._run_job", _traced_run_job),
)


def _patch(owner, name: str, make: Callable[[Callable], Callable], undo: list) -> None:
    """Replace ``owner.name`` by ``make(original)``; remember how to undo."""
    raw = vars(owner)[name]
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))
    undo.append((owner, name, raw))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every hooked call site; returns the function that unwraps."""
    undo: list = []
    for module, path, layer, after in HOOKS:
        owner, name = _resolve(module, path)
        _patch(owner, name, lambda fn, l=layer, a=after: tracer.wrap(l, fn, a), undo)
    for module, path, make in CUSTOM_HOOKS:
        owner, name = _resolve(module, path)
        _patch(owner, name, lambda fn, m=make: m(tracer, fn), undo)
    # The synth engine iterates a tuple of frozen templates: rebind it
    # with each template's ``instantiate`` wrapped.
    synth_engine = importlib.import_module("repro.synth.engine")
    templates = synth_engine.TEMPLATES
    synth_engine.TEMPLATES = tuple(
        dataclasses.replace(
            t, instantiate=tracer.wrap("synth.instantiate", t.instantiate, _after_instantiate)
        )
        for t in templates
    )
    undo.append((synth_engine, "TEMPLATES", templates))

    def uninstall() -> None:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return uninstall


#: Calls per calibration round of :func:`span_cost`.
CALIBRATION_CALLS = 20000


def span_cost() -> float:
    """Host seconds one wrapped call adds over a bare call (calibrated)."""
    tracer = Tracer()

    def bare() -> None:
        return None

    traced = tracer.wrap("calibrate", bare)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            bare()
        bare_s = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced()
        best = min(best, (time.perf_counter() - started - bare_s) / CALIBRATION_CALLS)
        tracer.spans.clear()
    return max(best, 0.0)


def write_spans(tracer: Tracer, path: str) -> None:
    """Write the recorded spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(span._asdict()) + "\n")


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by rank (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _service_metrics(lifecycle, submissions) -> dict[str, float]:
    """Queue wait, run time and client overhead from lifecycle events.

    ``lifecycle`` holds ``(host time, event)`` pairs from a daemon
    observer; ``submissions`` holds ``(job id, created the job, client
    latency)`` per finished submission.
    """
    admitted: dict[str, float] = {}
    started: dict[str, float] = {}
    completed: dict[str, float] = {}
    joins = shed = 0
    for stamp, event in lifecycle:
        if event.type == "job_admitted":
            joins += event.joined
            admitted.setdefault(event.job_id, stamp)
        elif event.type == "job_started":
            started[event.job_id] = stamp
        elif event.type == "job_completed":
            completed[event.job_id] = stamp
        elif event.type == "job_shed":
            shed += 1
    waits = [started[j] - admitted[j] for j in started if j in admitted]
    runs = {j: completed[j] - started[j] for j in completed if j in started}
    overheads = [
        latency - runs[job_id]
        for job_id, created, latency in submissions
        if created and job_id in runs
    ]
    return {
        "svc.queue_wait_p50_s": quantile(waits, 0.5),
        "svc.queue_wait_p90_s": quantile(waits, 0.9),
        "svc.run_p50_s": quantile(list(runs.values()), 0.5),
        "svc.overhead_p50_s": quantile(overheads, 0.5),
        "svc.joins": joins,
        "svc.shed": shed,
    }


#: Per-layer metric names in report order (every traced run reports all).
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("api.problem_s", "s"),
    ("engine.trials", "count"),
    ("engine.eval_sims", "count"),
    ("engine.resims", "count"),
    ("engine.self_s", "s"),
    ("engine.localize_s", "s"),
    ("engine.minimize_s", "s"),
    ("patch.apply_calls", "count"),
    ("patch.apply_s", "s"),
    ("hdl.codegen_calls", "count"),
    ("hdl.codegen_s", "s"),
    ("hdl.parse_calls", "count"),
    ("hdl.parse_s", "s"),
    ("lint.gate_calls", "count"),
    ("lint.gate_s", "s"),
    ("backend.batches", "count"),
    ("backend.cands", "count"),
    ("backend.batch_s", "s"),
    ("backend.self_s", "s"),
    ("eval.calls", "count"),
    ("eval.self_s", "s"),
    ("eval.frontend_s", "s"),
    ("eval.sim_fit_s", "s"),
    ("eval.compile_failed", "count"),
    ("cache.get_s", "s"),
    ("cache.mem_hits", "count"),
    ("cache.mem_misses", "count"),
    ("cache.mem_hit_rate", "fraction"),
    ("pool.worker_busy_s", "s"),
    ("pool.util", "fraction"),
    ("pool.quarantined", "count"),
    ("pool.requeued", "count"),
    ("sim.build_s", "s"),
    ("sim.run_calls", "count"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.steps", "count"),
    ("sim.us_per_event", "us"),
    ("trace.decode_s", "s"),
    ("trace.mismatch_s", "s"),
    ("fitness.calls", "count"),
    ("fitness.s", "s"),
    ("faultloc.calls", "count"),
    ("faultloc.s", "s"),
    ("synth.instantiate_s", "s"),
    ("synth.candidates", "count"),
    ("synth.mine_s", "s"),
    ("mint.s", "s"),
    ("mint.admitted", "count"),
    ("store.get_calls", "count"),
    ("store.get_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_rate", "fraction"),
    ("store.put_calls", "count"),
    ("store.put_s", "s"),
    ("store.put_failed", "count"),
    ("store.bytes_written", "bytes"),
    ("svc.queue_wait_p50_s", "s"),
    ("svc.queue_wait_p90_s", "s"),
    ("svc.run_p50_s", "s"),
    ("svc.overhead_p50_s", "s"),
    ("svc.joins", "count"),
    ("svc.shed", "count"),
    ("svc.dropped_events", "count"),
    ("journal.writes", "count"),
    ("journal.s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.s", "s"),
    ("trace.spans", "count"),
    ("trace.job_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
)

#: Metric → the layer whose summed self time it reports.
_SELF_SECONDS = {
    "api.problem_s": "api.problem",
    "engine.self_s": "engine.run",
    "engine.localize_s": "engine.localize",
    "engine.minimize_s": "engine.minimize",
    "patch.apply_s": "patch.apply",
    "hdl.codegen_s": "hdl.codegen",
    "hdl.parse_s": "hdl.parse",
    "lint.gate_s": "lint.gate",
    "backend.self_s": "backend.batch",
    "eval.self_s": "eval",
    "cache.get_s": "cache.get",
    "sim.build_s": "sim.build",
    "sim.run_s": "sim.run",
    "trace.decode_s": "trace.decode",
    "trace.mismatch_s": "trace.mismatch",
    "fitness.s": "fitness",
    "faultloc.s": "faultloc",
    "synth.instantiate_s": "synth.instantiate",
    "synth.mine_s": "synth.mine",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "journal.s": "journal",
    "checkpoint.s": "checkpoint",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer,
    window_s: float,
    store_put_failed: int = 0,
    mint: tuple[float, int] | None = None,
    lifecycle=None,
    submissions=None,
    dropped_events: int = 0,
    per_span_s: float = 0.0,
) -> dict[str, float]:
    """Reduce one traced run to every metric of :data:`LAYER_METRICS`."""
    spans = tracer.spans
    counts = tracer.counts
    own = layer_self_seconds(spans)
    metrics: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
    for name in metrics:
        if name in counts:
            metrics[name] = counts[name]
    for name, layer in _SELF_SECONDS.items():
        metrics[name] = own.get(layer, 0.0)
    metrics["backend.batch_s"] = sum(
        s.end - s.start for s in spans if s.layer == "backend.batch"
    )
    metrics["journal.writes"] = sum(1 for s in spans if s.layer == "journal")
    metrics["checkpoint.saves"] = sum(1 for s in spans if s.layer == "checkpoint")
    metrics["cache.mem_hit_rate"] = _ratio(
        counts["cache.mem_hits"], counts["cache.mem_hits"] + counts["cache.mem_misses"]
    )
    metrics["store.hit_rate"] = _ratio(counts["store.hits"], counts["store.get_calls"])
    metrics["store.put_failed"] = store_put_failed
    metrics["pool.util"] = _ratio(counts["pool.worker_busy_s"], counts["pool.capacity_s"])
    metrics["sim.us_per_event"] = 1e6 * _ratio(counts["eval.sim_fit_s"], counts["sim.events"])
    if mint is not None:
        metrics["mint.s"], metrics["mint.admitted"] = mint
    if lifecycle is not None:
        metrics.update(_service_metrics(lifecycle, submissions or []))
        metrics["svc.dropped_events"] = dropped_events
    job_s = sum(s.end - s.start for s in spans if s.layer == "job")
    metrics["trace.spans"] = len(spans)
    metrics["trace.job_s"] = job_s
    metrics["trace.unattributed_s"] = own.get("job", 0.0)
    metrics["trace.unattributed_pct"] = 100.0 * _ratio(own.get("job", 0.0), job_s)
    cost = len(spans) * per_span_s
    metrics["trace.overhead_pct"] = 100.0 * _ratio(cost, max(window_s - cost, 1e-9))
    return {name: float(value) for name, value in metrics.items()}

