"""Typed run-telemetry events (the ``repro.obs`` event schema).

Every interesting moment of a repair run is described by one frozen
dataclass below.  Events are *pure data*: producers (the engine, the
backends) compute their fields from values the search has already
derived, so attaching observers can never perturb the search itself —
a fixed-seed run emits the same event sequence whether zero or ten
observers are listening, and the :class:`~repro.core.repair.RepairOutcome`
is bit-identical either way.

Determinism contract
--------------------

For a fixed seed the *sequence of event types* (and every non-timing
field) is identical across evaluation backends (``serial`` vs
``process``): events are emitted only at points of the engine's
deterministic schedule (unique candidate evaluations counted by
``eval_sims``, chunk boundaries, generation boundaries).  Wall-clock
fields — everything named in :data:`WALL_TIME_FIELDS`, plus the ``ts``
stamp added by :class:`~repro.obs.jsonl.JsonlTraceObserver` — are the
only values that vary between runs and backends.

Serialisation
-------------

``event.to_dict()`` yields a JSON-ready mapping with a ``type`` tag;
:func:`event_from_dict` reverses it (ignoring unknown keys, so traces
written by newer schema versions still load).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

#: Fields whose values are wall-clock measurements: excluded from any
#: cross-backend or golden-file comparison (see ``docs/observability.md``).
WALL_TIME_FIELDS = frozenset({"ts", "wall_seconds", "seconds", "elapsed_seconds"})


@dataclass(frozen=True)
class RepairEvent:
    """Base class for all telemetry events."""

    type: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping with the ``type`` tag first."""
        return {"type": self.type, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class TrialStarted(RepairEvent):
    """One engine trial (scenario × seed) is starting."""

    type: ClassVar[str] = "trial_started"
    scenario: str
    seed: int
    backend: str
    workers: int
    population_size: int
    max_generations: int


@dataclass(frozen=True)
class CandidateEvaluated(RepairEvent):
    """One *unique* candidate design was scored (an ``eval_sims`` tick).

    Emitted exactly once per unique design text the engine evaluates —
    cache hits do not emit, and the engine never simulates a candidate
    twice, which is what keeps the event sequence identical across
    backends.  ``sim_events``/``sim_steps`` come from the simulator's
    scheduler counters; when the candidate ran in a pool worker they are
    measured worker-side and batched back with the chunk results.
    """

    type: ClassVar[str] = "candidate_evaluated"
    fitness: float
    compiled: bool
    wall_seconds: float
    sim_events: int
    sim_steps: int


@dataclass(frozen=True)
class GenerationCompleted(RepairEvent):
    """A generation's population is fully scored.

    ``generation`` 0 is the seed population.  Fitness statistics cover
    the candidates whose fitness is known at the boundary (an early-stop
    generation may leave some unevaluated).  ``operator_stats`` is a
    cumulative snapshot of reproduction-path usage counts.
    """

    type: ClassVar[str] = "generation_completed"
    generation: int
    population: int
    best_fitness: float
    fitness_min: float
    fitness_mean: float
    fitness_max: float
    eval_sims: int
    operator_stats: dict[str, int]


@dataclass(frozen=True)
class BackendChunkDispatched(RepairEvent):
    """A chunk of unique candidates is about to go to the backend."""

    type: ClassVar[str] = "backend_chunk_dispatched"
    chunk: int
    size: int
    #: The adaptive chunk size the engine chose for this generation
    #: (:func:`repro.core.repair.adaptive_chunk_size`); the final chunk
    #: of a generation may be smaller (``size <= chunk_size``).
    chunk_size: int = 0


@dataclass(frozen=True)
class BackendChunkCompleted(RepairEvent):
    """The backend returned a chunk's results."""

    type: ClassVar[str] = "backend_chunk_completed"
    chunk: int
    size: int
    wall_seconds: float


@dataclass(frozen=True)
class CandidateTimedOut(RepairEvent):
    """The supervised pool killed a candidate that exceeded its deadline.

    Emitted (via the engine, which drains backend incidents at chunk
    boundaries) once per timed-out dispatch attempt.  ``quarantined``
    marks the final attempt — the candidate scored a deterministic
    :class:`~repro.core.backend.EvalFailure`; otherwise it was requeued.
    Fault-path only: a run with no deadline hits emits none of these, so
    golden traces are unaffected.
    """

    type: ClassVar[str] = "candidate_timed_out"
    deadline_seconds: float
    attempt: int
    quarantined: bool


@dataclass(frozen=True)
class WorkerCrashed(RepairEvent):
    """An evaluation worker died (or contained a fatal candidate failure).

    ``kind`` is ``"crash"`` or ``"oom"``; ``exitcode`` is the worker's
    exit code when the process died (negative = killed by that signal),
    or None when the worker survived and reported the failure itself.
    The pool respawned the worker; the candidate was requeued or, when
    ``quarantined``, scored as an :class:`~repro.core.backend.EvalFailure`.
    Fault-path only — never emitted by a healthy run.
    """

    type: ClassVar[str] = "worker_crashed"
    kind: str
    exitcode: int | None
    attempt: int
    quarantined: bool


@dataclass(frozen=True)
class ChunkRetried(RepairEvent):
    """A chunk needed supervised re-dispatches to complete.

    Emitted after the chunk's ``backend_chunk_completed`` when any of its
    candidates were requeued (``requeued`` counts the re-dispatches).
    Quarantined-only failures do not emit this.  Fault-path only.
    """

    type: ClassVar[str] = "chunk_retried"
    chunk: int
    requeued: int


@dataclass(frozen=True)
class PlausiblePatchFound(RepairEvent):
    """A candidate reached fitness 1.0 (before minimization)."""

    type: ClassVar[str] = "plausible_patch_found"
    generation: int
    fitness: float
    edits: int


@dataclass(frozen=True)
class PhaseCompleted(RepairEvent):
    """Aggregate wall-clock spent in one pipeline phase over a trial.

    Phases are ``parse`` (candidate parse/elaborate/compile, a sub-span of
    ``evaluation``), ``localization`` (fault localization excluding the
    evaluations it triggers), ``evaluation`` (all candidate scoring), and
    ``minimization`` (delta debugging excluding its evaluations).  One
    event per phase is emitted at the end of every trial, in that order.
    """

    type: ClassVar[str] = "phase_completed"
    phase: str
    seconds: float


@dataclass(frozen=True)
class TrialCompleted(RepairEvent):
    """One engine trial finished (counters mirror ``RepairOutcome``)."""

    type: ClassVar[str] = "trial_completed"
    plausible: bool
    fitness: float
    generations: int
    eval_sims: int
    fitness_evals: int
    #: Always equal to ``eval_sims`` (kept for readers of stored traces).
    simulations: int
    edits: int
    elapsed_seconds: float
    #: Candidates the supervised pool quarantined (0 on healthy runs).
    quarantined: int = 0


@dataclass(frozen=True)
class JobAdmitted(RepairEvent):
    """The service daemon accepted (or joined) one repair job.

    ``joined`` is True when an identical job — same
    ``(design, testbench, config, seeds, engine)`` key — was already
    queued or running and this submission attached to it instead of
    enqueuing new work.  ``queue_depth`` counts jobs waiting *after*
    admission.  Service-path only: batch runs never emit job events.
    """

    type: ClassVar[str] = "job_admitted"
    job_id: str
    tenant: str
    scenario: str
    joined: bool
    queue_depth: int


@dataclass(frozen=True)
class JobStarted(RepairEvent):
    """A queued job was scheduled onto the evaluation backend."""

    type: ClassVar[str] = "job_started"
    job_id: str
    tenant: str
    #: Jobs running daemon-wide the moment this one started (inclusive).
    running: int


@dataclass(frozen=True)
class JobCompleted(RepairEvent):
    """One repair job left the running state.

    ``status`` is ``"done"``, ``"failed"`` (the repair raised), or
    ``"cancelled"``.  ``cache_hit_rate`` is the job's evaluation-cache
    hit fraction across both tiers (0.0 when no lookups happened) — the
    service's headline number for warm resubmissions.
    """

    type: ClassVar[str] = "job_completed"
    job_id: str
    tenant: str
    status: str
    plausible: bool
    fitness: float
    elapsed_seconds: float
    cache_hit_rate: float


@dataclass(frozen=True)
class JobRecovered(RepairEvent):
    """The daemon re-admitted one unfinished job from its journal.

    Service-lifecycle only (like the other ``job_*`` events): emitted on
    ``repro serve --recover`` startup, once per journaled job that never
    reached a terminal state.  The job then runs again from the start.
    ``attempts`` counts the daemon lifetimes that admitted it (2 = first
    recovery).
    """

    type: ClassVar[str] = "job_recovered"
    job_id: str
    tenant: str
    scenario: str
    attempts: int


@dataclass(frozen=True)
class JobShed(RepairEvent):
    """Admission control rejected a submission: queue depth at the cap.

    The client saw the typed ``{"code": "overloaded"}`` error carrying
    ``retry_after_hint`` (seconds; a smoothed estimate of when a slot
    frees up).  Joins to already-admitted jobs are never shed.
    """

    type: ClassVar[str] = "job_shed"
    tenant: str
    scenario: str
    queue_depth: int
    retry_after_hint: float


@dataclass(frozen=True)
class FuzzProgramChecked(RepairEvent):
    """One generated program went through the fuzz oracle battery.

    ``program_seed`` is the per-program seed (run seed + index), ``checks``
    the number of oracle checks that ran, ``violations`` how many of them
    failed.  Like every event, the non-timing fields are identical for a
    fixed seed regardless of evaluation backend.
    """

    type: ClassVar[str] = "fuzz_program_checked"
    index: int
    program_seed: int
    checks: int
    violations: int


@dataclass(frozen=True)
class FuzzViolationFound(RepairEvent):
    """A fuzz oracle rejected a generated (or corpus) program."""

    type: ClassVar[str] = "fuzz_violation_found"
    index: int
    program_seed: int
    oracle: str
    detail: str


@dataclass(frozen=True)
class FuzzRunCompleted(RepairEvent):
    """A fuzz run finished (counters mirror ``FuzzReport``)."""

    type: ClassVar[str] = "fuzz_run_completed"
    seed: int
    programs: int
    checks: int
    violations: int
    elapsed_seconds: float


@dataclass(frozen=True)
class MintScenarioAdmitted(RepairEvent):
    """The scenario factory admitted one observable-defect scenario.

    ``faulty_fitness`` is the mutant's fitness against the golden oracle
    (< 1.0 by the admission rule); it is a deterministic function of the
    mint seed, so traces are byte-comparable across runs and backends.
    """

    type: ClassVar[str] = "mint_scenario_admitted"
    index: int
    scenario_id: str
    source: str
    mutator: str
    category: int
    faulty_fitness: float


@dataclass(frozen=True)
class MintScenarioRejected(RepairEvent):
    """The scenario factory rejected one mint attempt.

    ``reason`` is one of the factory's rejection codes (``base_unusable``,
    ``no_sites``, ``mutate_refused``, ``uncompilable``, ``unobservable``);
    ``mutator`` is empty when rejection happened before a mutator was
    chosen.  ``shrunk`` counts the decisions of the ddmin-reduced
    reproducer (0 when shrinking was off or not applicable).
    """

    type: ClassVar[str] = "mint_scenario_rejected"
    index: int
    source: str
    mutator: str
    reason: str
    shrunk: int


@dataclass(frozen=True)
class MintRunCompleted(RepairEvent):
    """A mint run finished (counters mirror ``MintReport``)."""

    type: ClassVar[str] = "mint_run_completed"
    seed: int
    requested: int
    admitted: int
    rejected: int
    elapsed_seconds: float


@dataclass(frozen=True)
class MintedScenarioGraded(RepairEvent):
    """The grading harness finished one minted scenario with one engine.

    ``ground_truth_match`` is True when the repaired design is
    structurally identical to the golden design the defect was minted
    from — the strongest grade (plausible ⊇ correct ⊇ ground-truth
    match need not hold in general, but each is computed independently).
    """

    type: ClassVar[str] = "minted_scenario_graded"
    scenario_id: str
    engine: str
    mutator: str
    category: int
    plausible: bool
    correct: bool
    ground_truth_match: bool
    fitness: float
    #: Unique candidate evaluations (backend-independent, unlike raw
    #: simulation counts).
    eval_sims: int


@dataclass(frozen=True)
class MintedGradingCompleted(RepairEvent):
    """A grading run finished (counters mirror ``GradeReport``)."""

    type: ClassVar[str] = "minted_grading_completed"
    seed: int
    engine: str
    scenarios: int
    plausible: int
    correct: int
    ground_truth_matches: int
    elapsed_seconds: float


@dataclass(frozen=True)
class SynthTemplateEnumerated(RepairEvent):
    """The synth engine enumerated one repair template's instantiations.

    Emitted once per template round, *before* the round's candidates are
    scored, at a deterministic point of the engine's schedule — counts
    depend only on the design, the fault localization, and the oracle.
    """

    type: ClassVar[str] = "synth_template_enumerated"
    template: str
    sites: int
    candidates: int


@dataclass(frozen=True)
class SynthSolveCompleted(RepairEvent):
    """The synth engine finished its template sweep.

    ``winner_template`` is the template whose instantiation reached
    fitness 1.0, or ``""`` when no plausible repair was found.
    """

    type: ClassVar[str] = "synth_solve_completed"
    templates: int
    candidates: int
    winner_template: str
    plausible: bool


#: ``type`` tag → event class, for parsing traces back into events.
EVENT_TYPES: dict[str, type[RepairEvent]] = {
    cls.type: cls
    for cls in (
        TrialStarted,
        CandidateEvaluated,
        GenerationCompleted,
        BackendChunkDispatched,
        BackendChunkCompleted,
        CandidateTimedOut,
        WorkerCrashed,
        ChunkRetried,
        PlausiblePatchFound,
        PhaseCompleted,
        TrialCompleted,
        JobAdmitted,
        JobStarted,
        JobCompleted,
        JobRecovered,
        JobShed,
        FuzzProgramChecked,
        FuzzViolationFound,
        FuzzRunCompleted,
        MintScenarioAdmitted,
        MintScenarioRejected,
        MintRunCompleted,
        MintedScenarioGraded,
        MintedGradingCompleted,
        SynthTemplateEnumerated,
        SynthSolveCompleted,
    )
}


def event_from_dict(data: dict[str, Any]) -> RepairEvent:
    """Rebuild an event from its :meth:`RepairEvent.to_dict` form.

    Raises ``ValueError`` for an unknown ``type`` tag; silently drops
    unknown field keys (forward compatibility with newer traces).
    """
    tag = data.get("type")
    cls = EVENT_TYPES.get(tag)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown telemetry event type {tag!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})
