"""repro.obs — run telemetry for the repair pipeline.

A structured tracing + metrics layer: the engine (and both evaluation
backends) emit typed :mod:`~repro.obs.events` through an
:class:`~repro.obs.observer.ObserverSet`; observers consume them without
ever feeding back into the search, so fixed-seed outcomes are
bit-identical with or without telemetry attached.

Ships three observers:

- :class:`JsonlTraceObserver` — streams events to a per-run ``run.jsonl``
  (rendered later by ``python -m repro report run.jsonl``);
- :class:`MetricsObserver` — live counters, per-phase timing, and
  throughput summaries (evals/sec, sim events/sec);
- :class:`RecordingObserver` — in-memory event list for tests.

See ``docs/observability.md`` for the event schema and extension guide.
"""

from __future__ import annotations

from .bridge import AsyncEventBridge
from .events import (
    EVENT_TYPES,
    WALL_TIME_FIELDS,
    BackendChunkCompleted,
    BackendChunkDispatched,
    CandidateEvaluated,
    CandidateTimedOut,
    ChunkRetried,
    FuzzProgramChecked,
    FuzzRunCompleted,
    FuzzViolationFound,
    GenerationCompleted,
    JobAdmitted,
    JobCompleted,
    JobRecovered,
    JobShed,
    JobStarted,
    MintedGradingCompleted,
    MintedScenarioGraded,
    MintRunCompleted,
    MintScenarioAdmitted,
    MintScenarioRejected,
    PhaseCompleted,
    PlausiblePatchFound,
    RepairEvent,
    TrialCompleted,
    TrialStarted,
    WorkerCrashed,
    event_from_dict,
)
from .jsonl import JsonlTraceObserver, read_events, read_trace
from .metrics import MetricsObserver, Summary
from .observer import ObserverSet, RecordingObserver, RepairObserver
from .report import render_report, report_text, summary_dict

__all__ = [
    "RepairEvent",
    "TrialStarted",
    "TrialCompleted",
    "CandidateEvaluated",
    "CandidateTimedOut",
    "WorkerCrashed",
    "ChunkRetried",
    "GenerationCompleted",
    "BackendChunkDispatched",
    "BackendChunkCompleted",
    "PlausiblePatchFound",
    "PhaseCompleted",
    "JobAdmitted",
    "JobStarted",
    "JobCompleted",
    "JobRecovered",
    "JobShed",
    "FuzzProgramChecked",
    "FuzzViolationFound",
    "FuzzRunCompleted",
    "MintScenarioAdmitted",
    "MintScenarioRejected",
    "MintRunCompleted",
    "MintedScenarioGraded",
    "MintedGradingCompleted",
    "AsyncEventBridge",
    "EVENT_TYPES",
    "WALL_TIME_FIELDS",
    "event_from_dict",
    "RepairObserver",
    "ObserverSet",
    "RecordingObserver",
    "JsonlTraceObserver",
    "MetricsObserver",
    "Summary",
    "read_events",
    "read_trace",
    "render_report",
    "report_text",
    "summary_dict",
]
