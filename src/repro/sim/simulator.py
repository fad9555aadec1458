"""Top-level simulator API.

Typical use::

    from repro.hdl import parse
    from repro.sim import Simulator

    sim = Simulator(parse(verilog_text))
    result = sim.run(max_time=100_000)
    print(result.output)          # $display lines
    print(result.trace)           # $cirfix_record samples

The simulator replaces Synopsys VCS / Icarus Verilog in the original CirFix
pipeline: the repair loop only ever observes a design through ``result``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast, parse
from .elaborate import ContAssign, ElaborationError, Elaborator
from .eval import EvalError, eval_expr
from .logic import Value
from .processes import (
    Env,
    FinishRequest,
    Process,
    SimulationBudget,
    StmtGen,
    always_process,
    initial_process,
)
from .runtime import Instance, Signal
from .scheduler import Scheduler
from .systasks import Monitor, display_text, system_function


@dataclass
class TraceRecord:
    """One ``$cirfix_record`` sample: the named values at a timestamp."""

    time: int
    values: dict[str, Value]


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    time: int
    finished: bool
    output: list[str] = field(default_factory=list)
    trace: list[TraceRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    steps_used: int = 0
    #: Scheduler callbacks executed (active + NBA regions) — the cheap
    #: event-loop counter behind repro.obs's sim-events/sec metric.
    events_executed: int = 0
    #: Distinct simulation time slots advanced to.
    slots_advanced: int = 0

    @property
    def ok(self) -> bool:
        """True when the run hit ``$finish`` without runtime errors."""
        return self.finished and not self.errors


class SimulationError(Exception):
    """Raised when a design cannot be elaborated or crashes fatally."""


class Simulator:
    """Event-driven simulator for an elaborated design."""

    def __init__(
        self,
        source: ast.Source | str,
        top: str | None = None,
        max_steps: int = 5_000_000,
        seed: int = 0,
    ):
        if isinstance(source, str):
            source = parse(source)
        self.source = source
        self.scheduler = Scheduler()
        self.processes: list[Process] = []
        self.cont_assigns: list = []
        self.output: list[str] = []
        self.trace: list[TraceRecord] = []
        self.errors: list[str] = []
        self.monitors: list[Monitor] = []
        self._monitor_hooked = False
        self._max_steps = max_steps
        self._steps = 0
        self._rng_state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        top_name = top or self._detect_top(source)
        try:
            self.top: Instance = Elaborator(self, source).elaborate(top_name)
        except (EvalError, ValueError, OverflowError, RecursionError) as exc:
            raise ElaborationError(str(exc)) from exc
        for assign in self.cont_assigns:
            assign.install()
        for process in self.processes:
            process.start()

    # ------------------------------------------------------------------
    # Behaviour factories (overridden by CompiledSimulator)
    # ------------------------------------------------------------------

    def make_always(self, item: ast.Always, env: Env) -> Process:
        """Build the process for an ``always`` construct."""
        return always_process(self, item, env)

    def make_initial(self, item: ast.Initial, env: Env) -> Process:
        """Build the process for an ``initial`` construct."""
        return initial_process(self, item, env)

    def make_cont_assign(
        self,
        lhs_env: Env,
        lhs: ast.Expr,
        rhs_env: Env,
        rhs: ast.Expr,
        delay: ast.Expr | None = None,
    ):
        """Build the driver for a continuous assign / port connection."""
        return ContAssign(self, lhs_env, lhs, rhs_env, rhs, delay)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _detect_top(source: ast.Source) -> str:
        """Pick the module that nobody instantiates (prefer the last one)."""
        instantiated = {
            item.module_name
            for module in source.modules
            for item in module.items
            if isinstance(item, ast.Instance)
        }
        candidates = [m.name for m in source.modules if m.name not in instantiated]
        if not candidates:
            if not source.modules:
                raise ElaborationError("no modules in source")
            return source.modules[-1].name
        return candidates[-1]

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, max_time: int = 1_000_000) -> SimResult:
        """Run to ``$finish``, quiescence, or ``max_time``; never raises for
        in-simulation failures (they are reported in ``result.errors``)."""
        try:
            end_time = self.scheduler.run(max_time)
        except SimulationBudget:
            end_time = self.scheduler.time
            self.errors.append("statement budget exhausted (possible infinite loop)")
        except FinishRequest:
            end_time = self.scheduler.time
            self.scheduler.finished = True
        return SimResult(
            time=end_time,
            finished=self.scheduler.finished,
            output=self.output,
            trace=self.trace,
            errors=self.errors,
            steps_used=self._steps,
            events_executed=self.scheduler.events_executed,
            slots_advanced=self.scheduler.slots_advanced,
        )

    def close(self) -> None:
        """Break the reference cycles a built simulator holds.

        Processes and their wakers, signal waiters and subscribers,
        continuous-assign drivers, monitors, the scheduler's queues and
        the instance tree's parent/child links all lead back here, so
        without this a simulator is freed only by the cyclic garbage
        collector.  Closing leaves the lists a returned
        :class:`SimResult` shares (output, trace, errors) intact; the
        simulator cannot run again.
        """
        for process in self.processes:
            process.close()
        self.processes.clear()
        self.cont_assigns.clear()
        self.monitors.clear()
        self.scheduler.close()
        self.top.close()

    @property
    def steps_used(self) -> int:
        """Statements executed so far (readable even after a crash)."""
        return self._steps

    # ------------------------------------------------------------------
    # Hooks used by processes / elaboration
    # ------------------------------------------------------------------

    def consume_step(self) -> None:
        """Charge one statement against the runaway budget."""
        self._steps += 1
        if self._steps > self._max_steps:
            raise SimulationBudget(f"exceeded {self._max_steps} statements")

    def note_error(self, message: str) -> None:
        """Record a non-fatal runtime error (capped)."""
        if len(self.errors) < 100:
            self.errors.append(message)

    def emit_output(self, text: str) -> None:
        """Append a $display-style line to the output log (capped)."""
        if len(self.output) < 100_000:
            self.output.append(text)

    def next_random(self) -> int:
        """Deterministic 32-bit LCG step for $random."""
        self._rng_state = (self._rng_state * 1103515245 + 12345) & 0xFFFFFFFF
        return self._rng_state

    def system_function(self, name: str, args: list[Value]) -> Value:
        """Evaluate a system function call ($time, $random, ...)."""
        return system_function(self, name, args)

    def signal(self, path: str) -> Signal:
        """Look up a signal by hierarchical path relative to the top
        instance, e.g. ``"dut.counter_out"`` or just ``"clk"``."""
        parts = path.split(".")
        instance = self.top
        for part in parts[:-1]:
            child = instance.children.get(part)
            if child is None:
                raise KeyError(f"no instance {part!r} under {instance.path}")
            instance = child
        signal = instance.signals.get(parts[-1])
        if signal is None:
            raise KeyError(f"no signal {parts[-1]!r} in {instance.path}")
        return signal

    # ------------------------------------------------------------------
    # System tasks
    # ------------------------------------------------------------------

    def exec_systask(self, stmt: ast.SysTaskCall, env: Env) -> StmtGen:
        """Execute a system task (as a sub-generator of the calling process)."""
        name = stmt.name
        if name in ("$display", "$write"):
            try:
                text = display_text(stmt.args, env, self.scheduler.time)
            except EvalError as exc:
                self.note_error(f"{name}: {exc}")
                return
            self.emit_output(text)
            return
        if name == "$strobe":
            args = list(stmt.args)
            self.scheduler.schedule_at(
                0,
                lambda: self.emit_output(display_text(args, env, self.scheduler.time)),
                region="nba",
            )
            return
        if name == "$monitor":
            monitor = Monitor(list(stmt.args), env)
            self.monitors.append(monitor)
            if not self._monitor_hooked:
                self._monitor_hooked = True
                self.scheduler.add_postponed(self._sample_monitors)
            return
        if name in ("$finish", "$stop"):
            raise FinishRequest()
        if name == "$cirfix_record":
            self._schedule_record(stmt.args, env)
            return
        if name in ("$dumpfile", "$dumpvars", "$dumpon", "$dumpoff", "$timeformat"):
            return
        if name in ("$readmemh", "$readmemb"):
            self.note_error(f"{name} is not supported (preload memories in an initial block)")
            return
        if name == "$random":
            self.next_random()
            return
        self.note_error(f"unknown system task {name}")
        return
        yield  # pragma: no cover - makes this a generator function

    def _sample_monitors(self) -> None:
        for monitor in self.monitors:
            monitor.sample(self)

    def _schedule_record(self, args: list[ast.Expr], env: Env) -> None:
        """``$cirfix_record(sig, ...)``: sample at the end of this slot."""
        sample_time = self.scheduler.time

        def record() -> None:
            values: dict[str, Value] = {}
            for arg in args:
                label = _record_label(arg)
                try:
                    values[label] = eval_expr(arg, env)
                except EvalError:
                    values[label] = Value.unknown(1)
            self.trace.append(TraceRecord(sample_time, values))

        self.scheduler.schedule_postponed_once(record)


def _record_label(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Identifier):
        return expr.name
    from ..hdl.codegen import generate

    return generate(expr)
