"""Trace diffing: structured comparison of a simulation against an oracle.

Beyond the boolean mismatch set used by fault localization, the repair
workflow benefits from *where* and *how* traces diverge — the paper's
Figure 2 is exactly such a report.  :func:`diff_traces` produces per-cell
differences; :func:`render_diff` renders the Figure-2 style table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.logic import Value
from .trace import SimulationTrace


@dataclass(frozen=True)
class CellDiff:
    """One mismatching (time, var) observation."""

    time: int
    var: str
    expected: str
    actual: str


@dataclass
class TraceDiff:
    """Full comparison result."""

    diffs: list[CellDiff]
    compared_cells: int
    compared_bits: int

    @property
    def mismatched_vars(self) -> set[str]:
        return {d.var for d in self.diffs}

    @property
    def is_match(self) -> bool:
        return not self.diffs


def diff_traces(expected: SimulationTrace, actual: SimulationTrace) -> TraceDiff:
    """Compare ``actual`` against every (time, var) the oracle annotates."""
    actual_by_time: dict[int, dict[str, Value]] = {t: v for t, v in actual.rows}
    diffs: list[CellDiff] = []
    cells = bits = 0
    for time, expected_values in expected.rows:
        actual_values = actual_by_time.get(time, {})
        for var, exp in expected_values.items():
            cells += 1
            bits += exp.width
            act = actual_values.get(var)
            act_resized = act.resized(exp.width) if act is not None else None
            if (
                act_resized is None
                or act_resized.aval != exp.aval
                or act_resized.bval != exp.bval
            ):
                diffs.append(
                    CellDiff(
                        time,
                        var,
                        exp.to_bit_string(),
                        act_resized.to_bit_string() if act_resized is not None else "?",
                    )
                )
    return TraceDiff(diffs, cells, bits)


def render_diff(diff: TraceDiff, max_rows: int = 40) -> str:
    """A human-readable divergence report (Figure 2 flavour)."""
    if diff.is_match:
        return f"traces match ({diff.compared_cells} cells, {diff.compared_bits} bits)"
    lines = [
        f"{len(diff.diffs)} mismatching cells of {diff.compared_cells} "
        f"({sorted(diff.mismatched_vars)}):",
        f"{'time':>8s}  {'wire':<20s} {'expected':>12s} {'actual':>12s}",
    ]
    for cell in diff.diffs[:max_rows]:
        lines.append(
            f"{cell.time:>8d}  {cell.var:<20s} {cell.expected:>12s} {cell.actual:>12s}"
        )
    if len(diff.diffs) > max_rows:
        lines.append(f"... and {len(diff.diffs) - max_rows} more")
    return "\n".join(lines)
