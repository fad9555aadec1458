"""Event schema tests: serialisation round-trips and the registry."""

import dataclasses

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    WALL_TIME_FIELDS,
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
    SynthSolveCompleted,
    SynthTemplateEnumerated,
    TrialCompleted,
    TrialStarted,
    WorkerCrashed,
    event_from_dict,
)

SAMPLES = [
    TrialStarted(
        scenario="dec_numeric", seed=0, backend="serial", workers=1,
        population_size=16, max_generations=3,
    ),
    CandidateEvaluated(
        fitness=0.5, compiled=True, wall_seconds=0.01, sim_events=120, sim_steps=80,
    ),
    GenerationCompleted(
        generation=1, population=16, best_fitness=0.9, fitness_min=0.1,
        fitness_mean=0.4, fitness_max=0.9, eval_sims=30,
        operator_stats={"mutate": 7, "crossover": 3},
    ),
    CandidateTimedOut(deadline_seconds=2.0, attempt=1, quarantined=False),
    WorkerCrashed(kind="oom", exitcode=-9, attempt=2, quarantined=True),
    ChunkRetried(chunk=3, requeued=2),
    PhaseCompleted(phase="evaluation", seconds=1.25),
    TrialCompleted(
        plausible=True, fitness=1.0, generations=2, eval_sims=40,
        fitness_evals=52, simulations=44, edits=1, elapsed_seconds=3.2,
    ),
    FuzzProgramChecked(index=3, program_seed=3, checks=4, violations=0),
    FuzzViolationFound(
        index=3, program_seed=3, oracle="roundtrip", detail="AST mismatch at root",
    ),
    FuzzRunCompleted(seed=0, programs=25, checks=76, violations=1, elapsed_seconds=4.2),
    JobAdmitted(
        job_id="job-1-abcd1234", tenant="default", scenario="counter_reset",
        joined=False, queue_depth=1,
    ),
    JobStarted(job_id="job-1-abcd1234", tenant="default", running=1),
    JobCompleted(
        job_id="job-1-abcd1234", tenant="default", status="done",
        plausible=True, fitness=1.0, elapsed_seconds=2.5, cache_hit_rate=0.95,
    ),
    JobRecovered(
        job_id="job-1-abcd1234", tenant="default", scenario="counter_reset",
        attempts=2,
    ),
    JobShed(
        tenant="default", scenario="counter_reset", queue_depth=4,
        retry_after_hint=1.5,
    ),
    MintScenarioAdmitted(
        index=4, scenario_id="minted_0_004_off_by_one", source="fuzz",
        mutator="off_by_one", category=1, faulty_fitness=0.75,
    ),
    MintScenarioRejected(
        index=5, source="bench", mutator="stuck_constant",
        reason="unobservable", shrunk=0,
    ),
    MintRunCompleted(
        seed=0, requested=50, admitted=46, rejected=4, elapsed_seconds=1.9,
    ),
    MintedScenarioGraded(
        scenario_id="minted_0_004_off_by_one", engine="cirfix",
        mutator="off_by_one", category=1, plausible=True, correct=True,
        ground_truth_match=False, fitness=1.0, eval_sims=46,
    ),
    MintedGradingCompleted(
        seed=0, engine="cirfix", scenarios=7, plausible=6, correct=6,
        ground_truth_matches=1, elapsed_seconds=5.9,
    ),
    SynthTemplateEnumerated(template="flip_operator", sites=3, candidates=9),
    SynthSolveCompleted(
        templates=5, candidates=41, winner_template="flip_operator",
        plausible=True,
    ),
]


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.type)
def test_round_trip(event):
    data = event.to_dict()
    assert data["type"] == event.type
    assert event_from_dict(data) == event


def test_registry_covers_all_types():
    assert set(EVENT_TYPES) == {
        "trial_started", "candidate_evaluated", "generation_completed",
        "backend_chunk_dispatched", "backend_chunk_completed",
        "candidate_timed_out", "worker_crashed", "chunk_retried",
        "plausible_patch_found", "phase_completed", "trial_completed",
        "job_admitted", "job_started", "job_completed",
        "job_recovered", "job_shed",
        "fuzz_program_checked", "fuzz_violation_found", "fuzz_run_completed",
        "mint_scenario_admitted", "mint_scenario_rejected",
        "mint_run_completed",
        "minted_scenario_graded", "minted_grading_completed",
        "synth_template_enumerated", "synth_solve_completed",
    }
    for tag, cls in EVENT_TYPES.items():
        assert cls.type == tag


def test_unknown_type_rejected():
    with pytest.raises(ValueError, match="unknown telemetry event type"):
        event_from_dict({"type": "not_a_thing"})


def test_unknown_keys_dropped():
    data = PhaseCompleted(phase="parse", seconds=0.5).to_dict()
    data["future_field"] = 42
    assert event_from_dict(data) == PhaseCompleted(phase="parse", seconds=0.5)


def test_events_are_frozen():
    event = PhaseCompleted(phase="parse", seconds=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.seconds = 1.0


def test_wall_time_fields_name_real_fields():
    """Every wall-time name except ``ts`` (the serialisation stamp) must
    exist on some event, so the golden-file filter stays honest."""
    declared = {
        f.name for cls in EVENT_TYPES.values() for f in dataclasses.fields(cls)
    }
    assert WALL_TIME_FIELDS - {"ts"} <= declared
