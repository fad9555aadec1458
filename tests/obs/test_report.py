"""Report rendering tests (synthetic traces; a real trace is exercised
by the integration tests and scripts/check_all.sh)."""

import pytest

from repro.obs.events import (
    BackendChunkCompleted,
    BackendChunkDispatched,
    CandidateEvaluated,
    GenerationCompleted,
    PhaseCompleted,
    TrialCompleted,
    TrialStarted,
)
from repro.obs.jsonl import JsonlTraceObserver, read_events
from repro.obs.report import render_report, report_text, summary_dict


def _stream(generations=2):
    events = [
        TrialStarted(scenario="counter_reset", seed=0, backend="serial",
                     workers=1, population_size=4, max_generations=generations),
        BackendChunkDispatched(chunk=0, size=4),
        BackendChunkCompleted(chunk=0, size=4, wall_seconds=0.4),
    ]
    for g in range(generations + 1):
        events.append(CandidateEvaluated(
            fitness=0.5, compiled=True, wall_seconds=0.1,
            sim_events=10, sim_steps=5,
        ))
        events.append(GenerationCompleted(
            generation=g, population=4, best_fitness=0.5, fitness_min=0.1,
            fitness_mean=0.3, fitness_max=0.5, eval_sims=g + 1,
            operator_stats={"mutate": g},
        ))
    events += [
        PhaseCompleted(phase="parse", seconds=0.1),
        PhaseCompleted(phase="localization", seconds=0.1),
        PhaseCompleted(phase="evaluation", seconds=0.3),
        PhaseCompleted(phase="minimization", seconds=0.0),
        TrialCompleted(plausible=False, fitness=0.5,
                       generations=generations, eval_sims=generations + 1,
                       fitness_evals=8, simulations=4, edits=0,
                       elapsed_seconds=0.6),
    ]
    return events


def test_render_report_sections():
    text = render_report(_stream(), source="test.jsonl")
    assert "Run report — test.jsonl" in text
    assert "counter_reset" in text
    assert "Candidate evaluation" in text
    assert "Backend chunks" in text
    assert "Phase timing" in text
    assert "Generations" in text
    assert "Operator usage" in text


def test_generation_rows_elided():
    text = render_report(_stream(generations=40))
    assert "generation rows elided" in text
    # First and last generations always survive the elision.
    assert "\n0 " in text
    assert "\n40" in text


def test_report_text_from_file(tmp_path):
    path = tmp_path / "run.jsonl"
    with JsonlTraceObserver(path) as observer:
        for event in _stream():
            observer.on_event(event)
    text = report_text(path)
    assert "counter_reset" in text
    summary = summary_dict(path)
    assert summary["scenarios"] == ["counter_reset"]
    assert summary["candidates"]["evaluated"] == 3


def test_empty_trace_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="no events"):
        report_text(path)


def _write_trace(path, events, extra_lines=()):
    with JsonlTraceObserver(path) as observer:
        for event in events:
            observer.on_event(event)
    if extra_lines:
        with path.open("a") as fh:
            for line in extra_lines:
                fh.write(line + "\n")
    return path


def test_unknown_event_types_skipped_with_note(tmp_path):
    path = _write_trace(
        tmp_path / "future.jsonl",
        _stream(),
        extra_lines=[
            '{"type": "from_the_future", "payload": 1}',
            '{"type": "also_unknown"}',
        ],
    )
    text = report_text(path)
    assert "counter_reset" in text
    assert "(2 records of unknown event types skipped)" in text
    summary = summary_dict(path)
    assert summary["skipped_records"] == 2
    assert summary["scenarios"] == ["counter_reset"]


def test_fully_unknown_trace_rejected(tmp_path):
    path = tmp_path / "alien.jsonl"
    path.write_text('{"type": "from_the_future"}\n')
    with pytest.raises(ValueError, match="no recognised events"):
        report_text(path)


def test_skipped_records_key_absent_when_clean(tmp_path):
    path = _write_trace(tmp_path / "clean.jsonl", _stream())
    assert "skipped_records" not in summary_dict(path)
    assert "unknown event types skipped" not in report_text(path)


def test_stored_lint_gate_records_are_skipped(tmp_path):
    """A trace of a run with the removed lint gate still renders: its
    ``candidate_pruned`` records are skipped and counted, and the strict
    reader rejects them."""
    path = _write_trace(
        tmp_path / "gated.jsonl",
        _stream(),
        extra_lines=[
            '{"type": "candidate_pruned", "new_violations": {"L004": 1},'
            ' "rules": "L001,L004,L005"}',
        ],
    )
    text = report_text(path)
    assert "(1 record of unknown event types skipped)" in text
    assert "pruned" not in text
    assert summary_dict(path)["skipped_records"] == 1
    with pytest.raises(ValueError, match="candidate_pruned"):
        read_events(path)
