"""Render a run summary from a ``run.jsonl`` trace (``repro report``).

The report is built entirely by replaying the trace through
:class:`~repro.obs.metrics.MetricsObserver`, so anything the report
shows can also be computed live — the CLI is just a convenience view.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .events import RepairEvent, event_from_dict
from .jsonl import read_trace
from .metrics import PHASES, MetricsObserver

#: Max per-generation rows rendered before eliding the middle.
_MAX_GENERATION_ROWS = 12


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table (kept local: obs must not import experiments)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _seconds(value: float) -> str:
    return f"{value:.2f}s"


def render_report(events: list[RepairEvent], source: str = "run.jsonl") -> str:
    """Render the human-readable summary of one run's event stream."""
    metrics = MetricsObserver.replay(events)
    sections: list[str] = [f"Run report — {source}"]

    scenario_text = ", ".join(metrics.scenarios) or "(unknown scenario)"
    sections.append(
        f"scenario(s): {scenario_text}\n"
        f"trials: {metrics.trials_completed} completed "
        f"({metrics.plausible_trials} plausible), "
        f"best fitness {metrics.best_fitness:.3f}, "
        f"total generations {metrics.generations}, "
        f"wall {_seconds(metrics.elapsed_seconds)}"
    )

    eval_stats = metrics.eval_seconds
    sections.append(
        "Candidate evaluation\n"
        + _format_table(
            ["Metric", "Value"],
            [
                ["unique evaluations (eval_sims)", str(metrics.candidates)],
                # Supervision rows appear only when the fault-tolerance
                # machinery actually fired, so healthy-run reports are
                # unchanged.
                *(
                    [["quarantined by supervisor", str(metrics.candidates_quarantined)]]
                    if metrics.candidates_quarantined
                    else []
                ),
                *(
                    [[f"quarantined as {kind}", str(count)]
                     for kind, count in sorted(metrics.quarantined_by_kind.items())]
                    if metrics.candidates_quarantined
                    else []
                ),
                *(
                    [["requeued after worker faults", str(metrics.candidates_requeued)]]
                    if metrics.candidates_requeued
                    else []
                ),
                # Crash-safety rows appear only on journaled service
                # traces, so direct-run reports are unchanged.
                *(
                    [["jobs recovered from journal", str(metrics.jobs_recovered)]]
                    if metrics.jobs_recovered
                    else []
                ),
                *(
                    [["submissions shed (overload)", str(metrics.jobs_shed)]]
                    if metrics.jobs_shed
                    else []
                ),
                ["compile failures", str(metrics.compile_failures)],
                ["fitness evals (incl. cached)", str(metrics.fitness_evals)],
                ["simulations", str(metrics.simulations)],
                ["sim scheduler events", str(metrics.sim_events)],
                ["sim statements", str(metrics.sim_steps)],
                ["evaluation wall", _seconds(eval_stats.total)],
                ["evals/sec", f"{metrics.evals_per_second:.2f}"],
                ["sim events/sec", f"{metrics.sim_events_per_second:.0f}"],
                [
                    "per-eval seconds (min/mean/max)",
                    f"{eval_stats.min or 0:.4f} / {eval_stats.mean:.4f} / {eval_stats.max or 0:.4f}",
                ],
            ],
        )
    )

    if metrics.chunks_completed:
        sections.append(
            "Backend chunks\n"
            + _format_table(
                ["Metric", "Value"],
                [
                    ["chunks dispatched", str(metrics.chunks_dispatched)],
                    ["chunks completed", str(metrics.chunks_completed)],
                    ["candidates via chunks", str(metrics.chunk_candidates)],
                    [
                        "chunk seconds (min/mean/max)",
                        f"{metrics.chunk_seconds.min or 0:.4f} / "
                        f"{metrics.chunk_seconds.mean:.4f} / "
                        f"{metrics.chunk_seconds.max or 0:.4f}",
                    ],
                ],
            )
        )

    total_phase = sum(metrics.phase_seconds.values())
    phase_rows = []
    for phase in PHASES:
        seconds = metrics.phase_seconds.get(phase, 0.0)
        share = (seconds / total_phase * 100.0) if total_phase > 0 else 0.0
        phase_rows.append([phase, _seconds(seconds), f"{share:.1f}%"])
    sections.append("Phase timing\n" + _format_table(["Phase", "Wall", "Share"], phase_rows))

    if metrics.generation_stats:
        gens = metrics.generation_stats
        shown = gens
        elided = 0
        if len(gens) > _MAX_GENERATION_ROWS:
            head = _MAX_GENERATION_ROWS // 2
            tail = _MAX_GENERATION_ROWS - head
            shown = gens[:head] + gens[-tail:]
            elided = len(gens) - len(shown)
        gen_rows = [
            [
                str(g.generation),
                str(g.population),
                f"{g.fitness_min:.3f}",
                f"{g.fitness_mean:.3f}",
                f"{g.fitness_max:.3f}",
                f"{g.best_fitness:.3f}",
                str(g.eval_sims),
            ]
            for g in shown
        ]
        table = _format_table(
            ["Gen", "Pop", "Min", "Mean", "Max", "Best", "EvalSims"], gen_rows
        )
        if elided:
            table += f"\n({elided} generation rows elided)"
        sections.append("Generations\n" + table)

    if metrics.operator_stats:
        op_rows = [[name, str(count)] for name, count in sorted(metrics.operator_stats.items())]
        sections.append("Operator usage\n" + _format_table(["Operator", "Count"], op_rows))

    return "\n\n".join(sections)


def _load_known_events(
    records: list[dict[str, Any]],
) -> tuple[list[RepairEvent], int]:
    """Parse trace records, skipping event types this version doesn't know.

    Traces written by newer schema versions may contain extra event
    types; a report over the events we do understand beats a crash.
    (:func:`~repro.obs.jsonl.read_events` stays strict — programmatic
    consumers should see the mismatch.)  Returns the events plus how
    many records were skipped.
    """
    events: list[RepairEvent] = []
    skipped = 0
    for record in records:
        try:
            events.append(event_from_dict(record))
        except ValueError:
            skipped += 1
    return events, skipped


def report_text(path: str | Path) -> str:
    """Load a ``run.jsonl`` and render its report.

    Raises ``ValueError`` when the file is not a valid trace.  Records
    with unknown event types are skipped (with a note in the report),
    so traces from newer schema versions still render.
    """
    records = read_trace(path)
    if not records:
        raise ValueError(f"{path}: trace contains no events")
    events, skipped = _load_known_events(records)
    if not events:
        raise ValueError(f"{path}: trace contains no recognised events")
    report = render_report(events, source=str(path))
    if skipped:
        report += (
            f"\n\n({skipped} record{'s' if skipped != 1 else ''} of unknown "
            "event types skipped)"
        )
    return report


def summary_dict(path: str | Path) -> dict[str, Any]:
    """Load a trace and return the machine-readable metrics summary.

    Like :func:`report_text`, unknown event types are tolerated: they
    are skipped and counted under the ``"skipped_records"`` key (absent
    when everything parsed).
    """
    events, skipped = _load_known_events(read_trace(path))
    summary = MetricsObserver.replay(events).summary()
    if skipped:
        summary["skipped_records"] = skipped
    return summary
