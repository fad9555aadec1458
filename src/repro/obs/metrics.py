"""In-process aggregation of run telemetry.

:class:`MetricsObserver` folds the event stream into counters, per-phase
timing, and throughput summaries — the numbers every perf PR benchmarks
against (the ROADMAP's "fast as the hardware allows" needs measurement
first).  It can run live (attached to an engine) or replay a stored
trace (:meth:`MetricsObserver.replay`), and the two are guaranteed to
agree because both consume the same events.

Consistency contract (pinned by tests): after a run,
``metrics.candidates`` equals the engine's deterministic ``eval_sims``
budget counter, and the trial totals equal the ``RepairOutcome``
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .events import (
    BackendChunkCompleted,
    BackendChunkDispatched,
    CandidateEvaluated,
    CandidateTimedOut,
    ChunkRetried,
    GenerationCompleted,
    JobRecovered,
    JobShed,
    PhaseCompleted,
    PlausiblePatchFound,
    RepairEvent,
    TrialCompleted,
    TrialStarted,
    WorkerCrashed,
)

#: Phase keys in canonical display order.
PHASES = ("parse", "localization", "evaluation", "minimization")


@dataclass
class Summary:
    """Streaming count/total/min/max/mean over one quantity."""

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def add(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        """JSON-ready snapshot (missing min/max rendered as 0)."""
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min or 0.0, 6),
            "mean": round(self.mean, 6),
            "max": round(self.max or 0.0, 6),
        }


@dataclass
class MetricsObserver:
    """Aggregates counters and timing histograms over a run's events."""

    # -- trials ---------------------------------------------------------
    trials_started: int = 0
    trials_completed: int = 0
    plausible_trials: int = 0
    scenarios: list[str] = field(default_factory=list)
    best_fitness: float = 0.0
    # -- trial-total counters (mirror RepairOutcome) --------------------
    eval_sims: int = 0
    fitness_evals: int = 0
    simulations: int = 0
    generations: int = 0
    elapsed_seconds: float = 0.0
    # -- candidates -----------------------------------------------------
    candidates: int = 0
    compile_failures: int = 0
    sim_events: int = 0
    sim_steps: int = 0
    eval_seconds: Summary = field(default_factory=Summary)
    # -- backend chunks -------------------------------------------------
    chunks_dispatched: int = 0
    chunks_completed: int = 0
    chunk_candidates: int = 0
    chunk_seconds: Summary = field(default_factory=Summary)
    # -- supervision (fault-path only; all zero on healthy runs) --------
    #: Dispatch attempts the supervised pool killed at the deadline.
    candidates_timed_out: int = 0
    #: Worker-death kind (``crash``/``oom``) → observed count.
    worker_failures: dict[str, int] = field(default_factory=dict)
    #: Candidates quarantined as deterministic ``EvalFailure`` results.
    candidates_quarantined: int = 0
    #: Quarantine kind (``timeout``/``crash``/``oom``) → count.
    quarantined_by_kind: dict[str, int] = field(default_factory=dict)
    #: Chunks that needed supervised re-dispatches to complete.
    chunks_retried: int = 0
    #: Total candidate re-dispatches across those chunks.
    candidates_requeued: int = 0
    # -- crash safety (journaled service runs only; else all zero) ------
    #: Jobs re-admitted from the journal after a daemon crash.
    jobs_recovered: int = 0
    #: Submissions shed by admission backpressure.
    jobs_shed: int = 0
    # -- phases ---------------------------------------------------------
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # -- search shape ---------------------------------------------------
    generation_stats: list[GenerationCompleted] = field(default_factory=list)
    plausible_found: int = 0
    operator_stats: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def on_event(self, event: RepairEvent) -> None:
        """Fold one event into the aggregates."""
        if isinstance(event, CandidateEvaluated):
            self.candidates += 1
            if not event.compiled:
                self.compile_failures += 1
            self.sim_events += event.sim_events
            self.sim_steps += event.sim_steps
            self.eval_seconds.add(event.wall_seconds)
        elif isinstance(event, GenerationCompleted):
            self.generation_stats.append(event)
            self.operator_stats = dict(event.operator_stats)
        elif isinstance(event, BackendChunkDispatched):
            self.chunks_dispatched += 1
            self.chunk_candidates += event.size
        elif isinstance(event, BackendChunkCompleted):
            self.chunks_completed += 1
            self.chunk_seconds.add(event.wall_seconds)
        elif isinstance(event, CandidateTimedOut):
            self.candidates_timed_out += 1
            if event.quarantined:
                self.candidates_quarantined += 1
                self.quarantined_by_kind["timeout"] = (
                    self.quarantined_by_kind.get("timeout", 0) + 1
                )
        elif isinstance(event, WorkerCrashed):
            self.worker_failures[event.kind] = (
                self.worker_failures.get(event.kind, 0) + 1
            )
            if event.quarantined:
                self.candidates_quarantined += 1
                self.quarantined_by_kind[event.kind] = (
                    self.quarantined_by_kind.get(event.kind, 0) + 1
                )
        elif isinstance(event, ChunkRetried):
            self.chunks_retried += 1
            self.candidates_requeued += event.requeued
        elif isinstance(event, JobRecovered):
            self.jobs_recovered += 1
        elif isinstance(event, JobShed):
            self.jobs_shed += 1
        elif isinstance(event, PhaseCompleted):
            self.phase_seconds[event.phase] = (
                self.phase_seconds.get(event.phase, 0.0) + event.seconds
            )
        elif isinstance(event, PlausiblePatchFound):
            self.plausible_found += 1
        elif isinstance(event, TrialStarted):
            self.trials_started += 1
            if event.scenario not in self.scenarios:
                self.scenarios.append(event.scenario)
        elif isinstance(event, TrialCompleted):
            self.trials_completed += 1
            self.plausible_trials += event.plausible
            self.best_fitness = max(self.best_fitness, event.fitness)
            self.eval_sims += event.eval_sims
            self.fitness_evals += event.fitness_evals
            self.simulations += event.simulations
            self.generations += event.generations
            self.elapsed_seconds += event.elapsed_seconds

    @classmethod
    def replay(cls, events: Iterable[RepairEvent]) -> "MetricsObserver":
        """Aggregate a stored event stream (e.g. from ``run.jsonl``)."""
        metrics = cls()
        for event in events:
            metrics.on_event(event)
        return metrics

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    @property
    def evaluation_seconds(self) -> float:
        """Total wall-clock spent scoring candidates."""
        return self.eval_seconds.total

    @property
    def evals_per_second(self) -> float:
        """Unique candidate evaluations per second of evaluation time."""
        total = self.eval_seconds.total
        return self.candidates / total if total > 0 else 0.0

    @property
    def sim_events_per_second(self) -> float:
        """Simulator scheduler events per second of evaluation time."""
        total = self.eval_seconds.total
        return self.sim_events / total if total > 0 else 0.0

    def summary(self) -> dict[str, Any]:
        """All aggregates as one JSON-ready mapping."""
        return {
            "scenarios": list(self.scenarios),
            "trials": {
                "started": self.trials_started,
                "completed": self.trials_completed,
                "plausible": self.plausible_trials,
                "best_fitness": round(self.best_fitness, 6),
            },
            "totals": {
                "eval_sims": self.eval_sims,
                "fitness_evals": self.fitness_evals,
                "simulations": self.simulations,
                "generations": self.generations,
                "elapsed_seconds": round(self.elapsed_seconds, 3),
            },
            "candidates": {
                "evaluated": self.candidates,
                "compile_failures": self.compile_failures,
                "sim_events": self.sim_events,
                "sim_steps": self.sim_steps,
                "eval_seconds": self.eval_seconds.to_dict(),
                "evals_per_second": round(self.evals_per_second, 3),
                "sim_events_per_second": round(self.sim_events_per_second, 1),
            },
            "chunks": {
                "dispatched": self.chunks_dispatched,
                "completed": self.chunks_completed,
                "candidates": self.chunk_candidates,
                "seconds": self.chunk_seconds.to_dict(),
            },
            "supervision": {
                "timed_out": self.candidates_timed_out,
                "worker_failures": dict(sorted(self.worker_failures.items())),
                "quarantined": self.candidates_quarantined,
                "quarantined_by_kind": dict(
                    sorted(self.quarantined_by_kind.items())
                ),
                "chunks_retried": self.chunks_retried,
                "requeued": self.candidates_requeued,
            },
            "crash_safety": {
                "jobs_recovered": self.jobs_recovered,
                "jobs_shed": self.jobs_shed,
            },
            "phases": {
                phase: round(self.phase_seconds.get(phase, 0.0), 6) for phase in PHASES
            },
            "operators": dict(self.operator_stats),
        }
