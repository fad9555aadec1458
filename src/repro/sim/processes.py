"""Procedural statement execution.

Statements run inside Python generators that ``yield`` suspension records
(:class:`DelaySuspend`, :class:`EventSuspend`); the :class:`Process` wrapper
registers each suspension with the scheduler and resumes the generator when
it fires.  This models Verilog's cooperative concurrency directly: an
``always`` block is a ``while True`` generator, a ``#5`` is a yield.

Control-flow exceptions:

- :class:`FinishRequest` — ``$finish`` / ``$stop``;
- :class:`DisableEscape` — ``disable block_name``;
- :class:`SimulationBudget` — statement budget exhausted (runaway mutant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

from ..hdl import ast
from .eval import EvalError, eval_expr
from .logic import Value, truthiness
from .runtime import Instance, Memory, NamedEvent, Signal

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class FinishRequest(Exception):
    """Raised by ``$finish``/``$stop`` to unwind the current process."""


class SimulationBudget(Exception):
    """Raised when the per-run statement budget is exhausted."""


class DisableEscape(Exception):
    """Raised by ``disable name`` and caught by the matching named block."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass
class DelaySuspend:
    """Suspend the process for ``ticks`` time units."""

    ticks: int


@dataclass
class EventSuspend:
    """Suspend until any listed (waitable, edge) fires.

    ``items`` entries are (Signal | Memory | NamedEvent, edge) where edge is
    'posedge', 'negedge', or 'level'.
    """

    items: list[tuple[object, str]]


Suspend = DelaySuspend | EventSuspend
StmtGen = Generator[Suspend, None, None]


class LocalVar:
    """A function/task-local variable (no event semantics needed)."""

    __slots__ = ("name", "width", "signed", "value")

    def __init__(self, name: str, width: int, signed: bool = False):
        self.name = name
        self.width = width
        self.signed = signed
        self.value = Value.unknown(width)
        if signed:
            self.value = Value(width, self.value.aval, self.value.bval, True)

    def set(self, value: Value) -> None:
        """Assign, resizing to the variable's width."""
        self.value = value.resized(self.width, self.signed)


class Env:
    """Evaluation/assignment environment: instance scope + optional locals.

    Implements the :class:`repro.sim.eval.EvalScope` protocol.
    """

    __slots__ = ("sim", "instance", "locals")

    def __init__(self, sim: "Simulator", instance: Instance, locals_: dict[str, LocalVar] | None = None):
        self.sim = sim
        self.instance = instance
        self.locals = locals_

    def child(self, locals_: dict[str, LocalVar]) -> "Env":
        """A nested environment sharing the instance but with new locals."""
        return Env(self.sim, self.instance, locals_)

    # ------------------------------------------------------------------
    # EvalScope protocol
    # ------------------------------------------------------------------

    def read(self, name: str) -> Value:
        """Current value of a local, signal, or parameter."""
        if self.locals is not None and name in self.locals:
            return self.locals[name].value
        target = self.instance.lookup(name)
        if isinstance(target, Signal):
            return target.value
        if isinstance(target, Value):  # parameter
            return target
        if isinstance(target, Memory):
            raise EvalError(f"memory {name!r} read without an index")
        if isinstance(target, NamedEvent):
            raise EvalError(f"named event {name!r} used as a value")
        raise EvalError(f"unknown identifier {name!r} in {self.instance.path}")

    def read_word(self, name: str, index: int) -> Value:
        """Current value of one memory word."""
        memory = self.instance.memories.get(name)
        if memory is None:
            raise EvalError(f"unknown memory {name!r}")
        return memory.read(index)

    def is_memory(self, name: str) -> bool:
        """True when ``name`` resolves to a memory (not shadowed by a local)."""
        if self.locals is not None and name in self.locals:
            return False
        return name in self.instance.memories

    def call_function(self, name: str, args: list[Value]) -> Value:
        """Invoke a user-defined function synchronously."""
        fn = self.instance.functions.get(name)
        if fn is None:
            raise EvalError(f"unknown function {name!r}")
        return run_function(fn, args, self)

    def system_function(self, name: str, args: list[Value]) -> Value:
        """Invoke a system function such as ``$time``."""
        return self.sim.system_function(name, args)

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def lhs_width(self, lhs: ast.Expr) -> int:
        """Width of an lvalue, for context-determined RHS sizing."""
        if isinstance(lhs, ast.Identifier):
            if self.locals is not None and lhs.name in self.locals:
                return self.locals[lhs.name].width
            target = self.instance.lookup(lhs.name)
            if isinstance(target, Signal):
                return target.width
            if isinstance(target, Memory):
                return target.word_width
            return 32
        if isinstance(lhs, ast.Index):
            if isinstance(lhs.target, ast.Identifier) and self.is_memory(lhs.target.name):
                memory = self.instance.memories[lhs.target.name]
                return memory.word_width
            return 1
        if isinstance(lhs, ast.PartSelect):
            try:
                msb = eval_expr(lhs.msb, self).to_int()
                lsb = eval_expr(lhs.lsb, self).to_int()
                return abs(msb - lsb) + 1
            except EvalError:
                return 1
        if isinstance(lhs, ast.Concat):
            return sum(self.lhs_width(p) for p in lhs.parts)
        return 32

    def resolve_lvalue(self, lhs: ast.Expr) -> list[tuple[Callable[[Value], None], int]]:
        """Resolve an lvalue into (setter, width) pairs, MSB part first.

        Index expressions are evaluated *now*, per IEEE semantics for
        non-blocking assignments.
        """
        sim = self.sim
        if isinstance(lhs, ast.Identifier):
            name = lhs.name
            if self.locals is not None and name in self.locals:
                var = self.locals[name]
                return [(var.set, var.width)]
            target = self.instance.lookup(name)
            if isinstance(target, Signal):
                return [(lambda v, s=target: s.set_value(v, sim), target.width)]
            raise EvalError(f"cannot assign to {name!r} in {self.instance.path}")
        if isinstance(lhs, ast.Index):
            if isinstance(lhs.target, ast.Identifier) and self.is_memory(lhs.target.name):
                memory = self.instance.memories[lhs.target.name]
                index_val = eval_expr(lhs.index, self)
                if not index_val.is_fully_defined:
                    return [(lambda v: None, memory.word_width)]
                index = index_val.to_int()
                return [
                    (lambda v, m=memory, i=index: m.write(i, v, sim), memory.word_width)
                ]
            # Bit select on a signal.
            setter, _ = self._signal_bits_setter(lhs.target)
            index_val = eval_expr(lhs.index, self)
            if not index_val.is_fully_defined:
                return [(lambda v: None, 1)]
            index = index_val.to_int()
            return [(lambda v, s=setter, i=index: s(i, i, v), 1)]
        if isinstance(lhs, ast.PartSelect):
            setter, _ = self._signal_bits_setter(lhs.target)
            msb = eval_expr(lhs.msb, self)
            lsb = eval_expr(lhs.lsb, self)
            if not (msb.is_fully_defined and lsb.is_fully_defined):
                return [(lambda v: None, 1)]
            hi, lo = msb.to_int(), lsb.to_int()
            if hi < lo:
                hi, lo = lo, hi
            return [(lambda v, s=setter, h=hi, l=lo: s(h, l, v), hi - lo + 1)]
        if isinstance(lhs, ast.Concat):
            out: list[tuple[Callable[[Value], None], int]] = []
            for part in lhs.parts:
                out.extend(self.resolve_lvalue(part))
            return out
        raise EvalError(f"invalid lvalue {type(lhs).__name__}")

    def _signal_bits_setter(self, target: ast.Expr) -> tuple[Callable[[int, int, Value], None], Signal]:
        if not isinstance(target, ast.Identifier):
            raise EvalError("bit/part select target must be a simple name")
        name = target.name
        if self.locals is not None and name in self.locals:
            var = self.locals[name]

            def set_local_bits(hi: int, lo: int, value: Value, v=var) -> None:
                v.value = v.value.with_bits(hi, lo, value)

            return set_local_bits, None  # type: ignore[return-value]
        signal = self.instance.lookup(name)
        if not isinstance(signal, Signal):
            raise EvalError(f"cannot part-assign {name!r}")
        sim = self.sim

        def set_bits(hi: int, lo: int, value: Value, s=signal) -> None:
            s.set_value(s.value.with_bits(hi, lo, value), sim)

        return set_bits, signal

    def assign(self, lhs: ast.Expr, value: Value) -> None:
        """Blocking-style immediate assignment."""
        apply_to_setters(self.resolve_lvalue(lhs), value)

    def waitable(self, name: str) -> Signal | Memory | NamedEvent:
        """The Signal/Memory/NamedEvent behind ``name`` (for event controls)."""
        if self.locals is not None and name in self.locals:
            raise EvalError(f"cannot wait on local {name!r}")
        target = self.instance.lookup(name)
        if isinstance(target, (Signal, Memory, NamedEvent)):
            return target
        raise EvalError(f"cannot wait on {name!r}")


def apply_to_setters(setters: list[tuple[Callable[[Value], None], int]], value: Value) -> None:
    """Distribute ``value`` across resolved lvalue parts (MSB part first)."""
    total = sum(width for _, width in setters)
    value = value.resized(total)
    offset = total
    for setter, width in setters:
        offset -= width
        setter(value.select_range(offset + width - 1, offset))


# ----------------------------------------------------------------------
# Statement execution
# ----------------------------------------------------------------------


def exec_stmt(stmt: ast.Stmt | None, env: Env) -> StmtGen:
    """Execute one statement, yielding suspensions as needed."""
    if stmt is None or isinstance(stmt, ast.NullStmt):
        return
    env.sim.consume_step()
    if isinstance(stmt, ast.Block):
        if stmt.name is not None:
            try:
                for inner in list(stmt.stmts):
                    yield from exec_stmt(inner, env)
            except DisableEscape as escape:
                if escape.name != stmt.name:
                    raise
            return
        for inner in list(stmt.stmts):
            yield from exec_stmt(inner, env)
        return
    if isinstance(stmt, ast.BlockingAssign):
        width = env.lhs_width(stmt.lhs)
        value = eval_expr(stmt.rhs, env, ctx_width=width)
        if stmt.delay is not None:
            ticks = _delay_ticks(stmt.delay, env)
            if ticks > 0:
                yield DelaySuspend(ticks)
            elif ticks == 0:
                yield DelaySuspend(0)
        env.assign(stmt.lhs, value)
        return
    if isinstance(stmt, ast.NonBlockingAssign):
        width = env.lhs_width(stmt.lhs)
        value = eval_expr(stmt.rhs, env, ctx_width=width)
        setters = env.resolve_lvalue(stmt.lhs)
        ticks = _delay_ticks(stmt.delay, env) if stmt.delay is not None else 0
        env.sim.scheduler.schedule_at(
            ticks, lambda: apply_to_setters(setters, value), region="nba"
        )
        return
    if isinstance(stmt, ast.If):
        if truthiness(eval_expr(stmt.cond, env)) == "true":
            yield from exec_stmt(stmt.then_stmt, env)
        else:
            yield from exec_stmt(stmt.else_stmt, env)
        return
    if isinstance(stmt, ast.Case):
        yield from _exec_case(stmt, env)
        return
    if isinstance(stmt, ast.For):
        yield from exec_stmt(stmt.init, env)
        while truthiness(eval_expr(stmt.cond, env)) == "true":
            env.sim.consume_step()
            yield from exec_stmt(stmt.body, env)
            yield from exec_stmt(stmt.step, env)
        return
    if isinstance(stmt, ast.While):
        while truthiness(eval_expr(stmt.cond, env)) == "true":
            env.sim.consume_step()
            yield from exec_stmt(stmt.body, env)
        return
    if isinstance(stmt, ast.RepeatStmt):
        count = eval_expr(stmt.count, env)
        iterations = count.to_int() if count.is_fully_defined else 0
        for _ in range(max(iterations, 0)):
            env.sim.consume_step()
            yield from exec_stmt(stmt.body, env)
        return
    if isinstance(stmt, ast.Forever):
        while True:
            env.sim.consume_step()
            yield from exec_stmt(stmt.body, env)
    if isinstance(stmt, ast.Wait):
        while truthiness(eval_expr(stmt.cond, env)) != "true":
            items = _level_items(stmt.cond, env)
            if not items:
                raise EvalError("wait condition has no waitable signals")
            yield EventSuspend(items)
        yield from exec_stmt(stmt.body, env)
        return
    if isinstance(stmt, ast.DelayStmt):
        yield DelaySuspend(_delay_ticks(stmt.delay, env))
        yield from exec_stmt(stmt.body, env)
        return
    if isinstance(stmt, ast.EventControl):
        yield EventSuspend(resolve_senslist(stmt.senslist, env, stmt.body))
        yield from exec_stmt(stmt.body, env)
        return
    if isinstance(stmt, ast.EventTrigger):
        event = env.instance.events.get(stmt.name)
        if event is None:
            raise EvalError(f"unknown event {stmt.name!r}")
        event.trigger(env.sim)
        return
    if isinstance(stmt, ast.SysTaskCall):
        yield from env.sim.exec_systask(stmt, env)
        return
    if isinstance(stmt, ast.TaskCall):
        yield from _exec_task(stmt, env)
        return
    if isinstance(stmt, ast.Disable):
        raise DisableEscape(stmt.name)
    raise EvalError(f"cannot execute {type(stmt).__name__}")


def _delay_ticks(delay: ast.Expr, env: Env) -> int:
    value = eval_expr(delay, env)
    if not value.is_fully_defined:
        return 0
    return max(value.to_int(), 0)


def _exec_case(stmt: ast.Case, env: Env) -> StmtGen:
    subject = eval_expr(stmt.expr, env)
    default_item: ast.CaseItem | None = None
    for item in stmt.items:
        if not item.exprs:
            default_item = item
            continue
        for label in item.exprs:
            label_val = eval_expr(label, env)
            if _case_match(stmt.kind, subject, label_val):
                yield from exec_stmt(item.stmt, env)
                return
    if default_item is not None:
        yield from exec_stmt(default_item.stmt, env)


def _case_match(kind: str, subject: Value, label: Value) -> bool:
    width = max(subject.width, label.width)
    s = subject.resized(width)
    l = label.resized(width)
    mask = (1 << width) - 1
    if kind == "case":
        return s.aval == l.aval and s.bval == l.bval
    # Wildcard positions: z (and ? which parses as z) for casez; x or z for casex.
    if kind == "casez":
        wild = (l.bval & ~l.aval) | (s.bval & ~s.aval)
    else:  # casex
        wild = l.bval | s.bval
    care = mask & ~wild
    return (s.aval & care) == (l.aval & care) and (s.bval & care) == (l.bval & care)


def _exec_task(stmt: ast.TaskCall, env: Env) -> StmtGen:
    task = env.instance.tasks.get(stmt.name)
    if task is None:
        raise EvalError(f"unknown task {stmt.name!r}")
    locals_, inputs, outputs = _task_frame(task.decls, env)
    if len(stmt.args) != len(inputs) + len(outputs) and len(stmt.args) != len(
        [d for d in task.decls if d.kind in ("input", "output", "inout")]
    ):
        raise EvalError(f"task {stmt.name!r} argument count mismatch")
    # Bind arguments positionally, in declaration order of ports.
    ports = [d for d in task.decls if d.kind in ("input", "output", "inout")]
    if len(stmt.args) != len(ports):
        raise EvalError(f"task {stmt.name!r} expects {len(ports)} args")
    for decl, arg in zip(ports, stmt.args):
        if decl.kind in ("input", "inout"):
            locals_[decl.name].set(eval_expr(arg, env))
    task_env = env.child(locals_)
    yield from exec_stmt(task.body, task_env)
    for decl, arg in zip(ports, stmt.args):
        if decl.kind in ("output", "inout"):
            env.assign(arg, locals_[decl.name].value)


def _task_frame(
    decls: list[ast.Decl], env: Env
) -> tuple[dict[str, LocalVar], list[str], list[str]]:
    locals_: dict[str, LocalVar] = {}
    inputs: list[str] = []
    outputs: list[str] = []
    for decl in decls:
        width = _decl_width(decl, env)
        locals_[decl.name] = LocalVar(decl.name, width, decl.signed)
        if decl.kind in ("input", "inout"):
            inputs.append(decl.name)
        elif decl.kind == "output":
            outputs.append(decl.name)
    return locals_, inputs, outputs


def _decl_width(decl: ast.Decl, env: Env) -> int:
    if decl.kind == "integer":
        return 32
    if decl.msb is None:
        return 1
    msb = eval_expr(decl.msb, env).to_int()
    lsb = eval_expr(decl.lsb, env).to_int()
    return abs(msb - lsb) + 1


def run_function(fn: ast.FunctionDef, args: list[Value], env: Env) -> Value:
    """Execute a user function synchronously (no time controls allowed)."""
    env.sim.consume_step()
    locals_: dict[str, LocalVar] = {}
    result_width = 1
    if fn.msb is not None:
        msb = eval_expr(fn.msb, env).to_int()
        lsb = eval_expr(fn.lsb, env).to_int()
        result_width = abs(msb - lsb) + 1
    locals_[fn.name] = LocalVar(fn.name, result_width)
    inputs: list[str] = []
    for decl in fn.decls:
        width = _decl_width(decl, env)
        locals_[decl.name] = LocalVar(decl.name, width, decl.signed)
        if decl.kind == "input":
            inputs.append(decl.name)
    if len(args) != len(inputs):
        raise EvalError(f"function {fn.name!r} expects {len(inputs)} args")
    for name, arg in zip(inputs, args):
        locals_[name].set(arg)
    fn_env = env.child(locals_)
    gen = exec_stmt(fn.body, fn_env)
    for _ in gen:
        raise EvalError(f"function {fn.name!r} contains a time control")
    return locals_[fn.name].value


# ----------------------------------------------------------------------
# Sensitivity resolution
# ----------------------------------------------------------------------


def collect_read_names(node: ast.Node) -> set[str]:
    """Identifiers read by a statement (for @* and wait sensitivity).

    Approximates "read" as every identifier appearing anywhere except as the
    direct target name of an assignment (index expressions still count).
    One walk records both; targets are filtered out after it, so an
    identifier object reached twice is skipped at every occurrence.
    """
    skip_ids: set[int] = set()
    identifiers: list[ast.Identifier] = []
    for sub in node.walk():
        if isinstance(sub, ast.Identifier):
            identifiers.append(sub)
        elif isinstance(sub, (ast.BlockingAssign, ast.NonBlockingAssign)):
            target = sub.lhs
            while isinstance(target, (ast.Index, ast.PartSelect)):
                target = target.target
            if isinstance(target, ast.Identifier):
                skip_ids.add(id(target))
    return {sub.name for sub in identifiers if id(sub) not in skip_ids}


def _level_items(expr: ast.Expr, env: Env) -> list[tuple[object, str]]:
    items: list[tuple[object, str]] = []
    for name in sorted(collect_read_names(expr)):
        try:
            items.append((env.waitable(name), "level"))
        except EvalError:
            continue
    return items


def resolve_senslist(
    senslist: ast.SensList, env: Env, body: ast.Stmt | None = None
) -> list[tuple[object, str]]:
    """Turn a sensitivity list AST into concrete (waitable, edge) pairs."""
    items: list[tuple[object, str]] = []
    for item in senslist.items:
        if item.edge == "all":
            if body is not None:
                items.extend(_level_items(body, env))
            continue
        signal = item.signal
        if isinstance(signal, ast.Identifier):
            items.append((env.waitable(signal.name), item.edge))
        elif signal is not None:
            items.extend(_level_items(signal, env))
    if not items:
        raise EvalError("empty sensitivity list after resolution")
    return items


# ----------------------------------------------------------------------
# Process wrapper
# ----------------------------------------------------------------------


class Process:
    """Wraps a statement generator and drives it through the scheduler."""

    __slots__ = ("sim", "scheduler", "gen", "name", "_pending", "done")

    def __init__(self, sim: "Simulator", gen: StmtGen, name: str):
        self.sim = sim
        self.scheduler = sim.scheduler
        self.gen = gen
        self.name = name
        self._pending: list[tuple[object, Callable[[], None]]] = []
        self.done = False

    def start(self) -> None:
        """Schedule the first resumption at the current time."""
        self.scheduler.schedule_active(self.resume)

    def resume(self) -> None:
        """Advance the generator to its next suspension and register it."""
        if self.done or self.scheduler.finished:
            return
        try:
            suspend = next(self.gen)
        except StopIteration:
            self.done = True
            return
        except FinishRequest:
            self.done = True
            self.scheduler.finish()
            return
        except DisableEscape:
            # Disabling an enclosing block that is not on this stack simply
            # terminates the process (matches VCS behaviour for our subset).
            self.done = True
            return
        except (EvalError, ValueError, OverflowError) as exc:
            # A runtime evaluation failure (including width-cap violations
            # from absurd mutants) kills only this process; the rest of the
            # design keeps running and the fitness function sees the
            # resulting wrong/missing outputs.
            self.done = True
            self.sim.note_error(f"{self.name}: {exc}")
            return
        if isinstance(suspend, DelaySuspend):
            if suspend.ticks == 0:
                self.scheduler.schedule_inactive(self.resume)
            else:
                self.scheduler.schedule_at(suspend.ticks, self.resume)
            return
        items = suspend.items
        if len(items) == 1:
            # One waitable: firing a waiter removes it, so the process
            # can wait on its own resume, with nothing to deregister.
            waitable, edge = items[0]
            if isinstance(waitable, NamedEvent):
                waitable.add_waiter(self.resume)
            else:
                waitable.add_waiter(edge, self.resume)  # type: ignore[union-attr]
            return
        # Several waitables: register a one-shot waker on every item; the
        # first to fire deregisters the rest.
        wake = self._make_waker()
        for waitable, edge in items:
            if isinstance(waitable, NamedEvent):
                waitable.add_waiter(wake)
            else:
                waitable.add_waiter(edge, wake)  # type: ignore[union-attr]
            self._pending.append((waitable, wake))

    def close(self) -> None:
        """Close the generator and drop the pending wakers (see
        :meth:`Simulator.close`)."""
        self.gen.close()
        self._pending.clear()

    def _make_waker(self) -> Callable[[], None]:
        fired = False

        def wake() -> None:
            nonlocal fired
            if fired:
                return
            fired = True
            for waitable, cb in self._pending:
                waitable.remove_waiter(cb)  # type: ignore[union-attr]
            self._pending.clear()
            self.resume()

        return wake


def always_process(sim: "Simulator", item: ast.Always, env: Env) -> Process:
    """Build the generator for an ``always`` construct."""

    def gen() -> StmtGen:
        if item.senslist is None:
            while True:
                env.sim.consume_step()
                yield from exec_stmt(item.body, env)
        else:
            while True:
                yield EventSuspend(resolve_senslist(item.senslist, env, item.body))
                yield from exec_stmt(item.body, env)

    return Process(sim, gen(), f"always@{env.instance.path}")


def initial_process(sim: "Simulator", item: ast.Initial, env: Env) -> Process:
    """Build the generator for an ``initial`` construct."""

    def gen() -> StmtGen:
        yield from exec_stmt(item.body, env)

    return Process(sim, gen(), f"initial@{env.instance.path}")
