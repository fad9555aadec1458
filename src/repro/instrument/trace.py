"""Simulation traces: the observable CirFix works with.

A :class:`SimulationTrace` is the paper's ``S : Time -> Var -> {0,1,x,z}``
(and ``O`` for expected output): for each recorded timestamp, the 4-state
value of every recorded output wire/register.  Traces serialise to the CSV
shape shown in the paper's Figure 2 (``time,var1,var2,...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.logic import Value
from ..sim.simulator import TraceRecord


@dataclass
class SimulationTrace:
    """An ordered mapping Time → Var → Value."""

    #: Ordered list of (time, {var: value}).
    rows: list[tuple[int, dict[str, Value]]] = field(default_factory=list)

    @staticmethod
    def from_records(records: list[TraceRecord]) -> "SimulationTrace":
        return SimulationTrace([(r.time, dict(r.values)) for r in records])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def times(self) -> list[int]:
        """Recorded timestamps, in order."""
        return [t for t, _ in self.rows]

    def variables(self) -> list[str]:
        """Recorded variable names, in first-seen order."""
        seen: dict[str, None] = {}
        for _, values in self.rows:
            for name in values:
                seen.setdefault(name)
        return list(seen)

    def get(self, time: int, var: str) -> Value | None:
        """The value of ``var`` at ``time``, or None."""
        for t, values in self.rows:
            if t == time:
                return values.get(var)
        return None

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # Oracle degradation (RQ4)
    # ------------------------------------------------------------------

    def subsample(self, fraction: float) -> "SimulationTrace":
        """Keep roughly ``fraction`` of rows, deterministically.

        Models the paper's RQ4 setting where only 50% / 25% of the expected
        behaviour annotations are available.  Rows are kept at an even
        stride so the remaining information still spans the simulation.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1 or len(self.rows) <= 1:
            return SimulationTrace(list(self.rows))
        keep = max(1, round(len(self.rows) * fraction))
        stride = len(self.rows) / keep
        indices = sorted({int(i * stride) for i in range(keep)})
        return SimulationTrace([self.rows[i] for i in indices])

    # ------------------------------------------------------------------
    # Serialisation (Figure 2 CSV shape)
    # ------------------------------------------------------------------

    def to_csv(self) -> str:
        """Serialise to the Figure 2 CSV shape."""
        variables = self.variables()
        lines = ["time," + ",".join(variables)]
        for time, values in self.rows:
            cells = [str(time)]
            for var in variables:
                value = values.get(var)
                cells.append(value.to_bit_string() if value is not None else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "SimulationTrace":
        lines = [line for line in text.strip().splitlines() if line.strip()]
        if not lines:
            return SimulationTrace()
        header = lines[0].split(",")
        if header[0] != "time":
            raise ValueError("trace CSV must start with a 'time' column")
        variables = header[1:]
        rows: list[tuple[int, dict[str, Value]]] = []
        for line in lines[1:]:
            cells = line.split(",")
            time = int(cells[0])
            values: dict[str, Value] = {}
            for var, cell in zip(variables, cells[1:]):
                if cell:
                    values[var] = Value.from_string(cell)
            rows.append((time, values))
        return SimulationTrace(rows)


def output_mismatch(expected: SimulationTrace, actual: SimulationTrace) -> set[str]:
    """Names of variables whose value ever differs from the oracle.

    This is Algorithm 2's ``get_output_mismatch``.  Comparison happens on
    timestamps present in the oracle; a timestamp missing from the actual
    trace counts as a mismatch for every oracle variable at that time
    (the candidate stopped producing output).
    """
    actual_by_time = {t: values for t, values in actual.rows}
    mismatched: set[str] = set()
    for time, expected_values in expected.rows:
        actual_values = actual_by_time.get(time)
        for var, exp in expected_values.items():
            if actual_values is None or var not in actual_values:
                mismatched.add(var)
                continue
            act = actual_values[var].resized(exp.width)
            if act.aval != exp.aval or act.bval != exp.bval:
                mismatched.add(var)
    return mismatched
