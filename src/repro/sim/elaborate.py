"""Design elaboration: AST module definitions → runtime instance tree.

Elaboration creates :class:`~repro.sim.runtime.Signal`/:class:`Memory`/
:class:`NamedEvent` objects for declarations, resolves parameters (with
instantiation overrides), wires up port connections as continuous
assignments, and registers processes for ``always``/``initial`` constructs
and continuous ``assign`` items.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hdl import ast
from .eval import EvalError, eval_expr
from .logic import Value
from .processes import Env, apply_to_setters
from .runtime import Instance, Memory, NamedEvent, Signal

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class ElaborationError(Exception):
    """Raised when the design cannot be elaborated (bad mutant, missing
    module, non-constant range, unsupported construct)."""


_MAX_SIGNAL_WIDTH = 1 << 16
_MAX_MEMORY_WORDS = 1 << 22


class ContAssign:
    """A continuous assignment (or port connection) driver.

    LHS and RHS may live in different instances (port connections), so each
    side carries its own environment.
    """

    __slots__ = ("sim", "lhs_env", "lhs", "rhs_env", "rhs", "delay")

    def __init__(
        self,
        sim: "Simulator",
        lhs_env: Env,
        lhs: ast.Expr,
        rhs_env: Env,
        rhs: ast.Expr,
        delay: ast.Expr | None = None,
    ):
        self.sim = sim
        self.lhs_env = lhs_env
        self.lhs = lhs
        self.rhs_env = rhs_env
        self.rhs = rhs
        self.delay = delay

    def install(self) -> None:
        """Subscribe to RHS fan-in and schedule the initial evaluation."""
        from .processes import collect_read_names

        for name in collect_read_names(self.rhs):
            target = self.rhs_env.instance.lookup(name)
            if isinstance(target, (Signal, Memory)):
                target.subscribe(self.update)
        self.sim.scheduler.schedule_active(self.update)

    def update(self) -> None:
        # Combinational feedback loops (``assign a = !a`` in a mutant) must
        # hit the statement budget rather than spin the scheduler forever.
        """Re-evaluate the RHS and drive the LHS (with optional delay)."""
        self.sim.consume_step()
        try:
            width = self.lhs_env.lhs_width(self.lhs)
            value = eval_expr(self.rhs, self.rhs_env, ctx_width=width)
        except (EvalError, ValueError, OverflowError) as exc:
            self.sim.note_error(f"continuous assign: {exc}")
            return
        if self.delay is not None:
            try:
                ticks = eval_expr(self.delay, self.rhs_env).to_int()
            except EvalError:
                ticks = 0
            if ticks > 0:
                self.sim.scheduler.schedule_at(ticks, lambda: self._apply(value))
                return
        self._apply(value)

    def _apply(self, value: Value) -> None:
        try:
            apply_to_setters(self.lhs_env.resolve_lvalue(self.lhs), value)
        except (EvalError, ValueError, OverflowError) as exc:
            self.sim.note_error(f"continuous assign target: {exc}")


class _ConstScope:
    """Minimal EvalScope over an instance's parameters (for ranges)."""

    def __init__(self, instance: Instance):
        self._instance = instance

    def read(self, name: str) -> Value:
        value = self._instance.params.get(name)
        if value is None:
            raise EvalError(f"non-constant name {name!r} in constant expression")
        return value

    def read_word(self, name: str, index: int) -> Value:
        raise EvalError("memory access in constant expression")

    def is_memory(self, name: str) -> bool:
        return False

    def call_function(self, name: str, args: list[Value]) -> Value:
        raise EvalError("function call in constant expression")

    def system_function(self, name: str, args: list[Value]) -> Value:
        if name == "$clog2" and len(args) == 1:
            n = args[0].to_int()
            bits = 0
            while (1 << bits) < n:
                bits += 1
            return Value.from_int(bits, 32)
        raise EvalError(f"system function {name} in constant expression")


def _const_int(expr: ast.Expr, instance: Instance) -> int:
    value = eval_expr(expr, _ConstScope(instance))
    if not value.is_fully_defined:
        raise ElaborationError("range/parameter expression is x/z")
    return value.to_int() if value.signed else value.aval


class Elaborator:
    """Builds the instance tree and registers runtime behaviour."""

    def __init__(self, sim: "Simulator", source: ast.Source):
        self.sim = sim
        self.source = source
        self.modules = {m.name: m for m in source.modules}
        #: The root instance, once made: a failed elaboration leaves the
        #: partial tree here for the simulator to close.
        self.root: Instance | None = None

    def elaborate(self, top_name: str) -> Instance:
        """Elaborate ``top_name`` and return the root instance."""
        module = self.modules.get(top_name)
        if module is None:
            raise ElaborationError(f"top module {top_name!r} not found")
        return self._instantiate(top_name, module, None, {})

    # ------------------------------------------------------------------

    def _instantiate(
        self,
        inst_name: str,
        module: ast.ModuleDef,
        parent: Instance | None,
        param_overrides: dict[str, Value],
    ) -> Instance:
        instance = Instance(inst_name, module, parent)
        # Linked before its body elaborates, so a failed elaboration
        # leaves one tree, reachable from the root.
        if parent is None:
            self.root = instance
        else:
            parent.children[inst_name] = instance

        # Pass 1: parameters (in declaration order, overrides applied).
        for item in module.items:
            if isinstance(item, ast.Decl) and item.kind in ("parameter", "localparam"):
                if item.kind == "parameter" and item.name in param_overrides:
                    instance.params[item.name] = param_overrides[item.name]
                else:
                    if item.init is None:
                        raise ElaborationError(f"parameter {item.name} has no value")
                    value = eval_expr(item.init, _ConstScope(instance))
                    if item.msb is not None:
                        width = self._range_width(item, instance)
                        value = value.resized(width)
                    instance.params[item.name] = value

        # Pass 2: signals, memories, events.
        for item in module.items:
            if isinstance(item, ast.Decl):
                self._elaborate_decl(item, instance)
            elif isinstance(item, ast.FunctionDef):
                instance.functions[item.name] = item
            elif isinstance(item, ast.TaskDef):
                instance.tasks[item.name] = item

        # Pass 3: behaviour (assigns, processes, child instances).
        env = Env(self.sim, instance)
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                assign = self.sim.make_cont_assign(env, item.lhs, env, item.rhs, item.delay)
                self.sim.cont_assigns.append(assign)
            elif isinstance(item, ast.Always):
                self.sim.processes.append(self.sim.make_always(item, env))
            elif isinstance(item, ast.Initial):
                self.sim.processes.append(self.sim.make_initial(item, env))
            elif isinstance(item, ast.Instance):
                self._elaborate_child(item, instance, env)

        # Declaration initialisers (``reg r = 0;``) apply at time zero.
        for item in module.items:
            if (
                isinstance(item, ast.Decl)
                and item.init is not None
                and item.kind not in ("parameter", "localparam")
            ):
                signal = instance.signals.get(item.name)
                if signal is not None:
                    value = eval_expr(item.init, _ConstScope(instance))
                    self.sim.scheduler.schedule_active(
                        lambda s=signal, v=value: s.set_value(v, self.sim)
                    )
        return instance

    def _range_width(self, decl: ast.Decl, instance: Instance) -> int:
        if decl.msb is None:
            return 1
        msb = _const_int(decl.msb, instance)
        lsb = _const_int(decl.lsb, instance)
        width = abs(msb - lsb) + 1
        if width > _MAX_SIGNAL_WIDTH:
            raise ElaborationError(f"width {width} of {decl.name} too large")
        return width

    def _elaborate_decl(self, decl: ast.Decl, instance: Instance) -> None:
        kind = decl.kind
        if kind in ("parameter", "localparam", "genvar"):
            return
        if kind == "event":
            instance.events[decl.name] = NamedEvent(decl.name)
            return
        if kind in ("input", "output", "inout"):
            instance.port_directions[decl.name] = kind
        width = 32 if kind == "integer" else 64 if kind == "time" else self._range_width(decl, instance)
        signed = decl.signed or kind == "integer"

        if decl.array_msb is not None:
            lo = _const_int(decl.array_lsb, instance)
            hi = _const_int(decl.array_msb, instance)
            if abs(hi - lo) + 1 > _MAX_MEMORY_WORDS:
                raise ElaborationError(f"memory {decl.name} too large")
            instance.memories[decl.name] = Memory(decl.name, width, lo, hi, signed)
            return

        signal_kind = "wire"
        if kind in ("reg", "integer", "time") or decl.reg_flag:
            signal_kind = "reg"
        existing = instance.signals.get(decl.name)
        if existing is not None:
            # Classic two-decl style: ``output [3:0] q;`` + ``reg [3:0] q;``.
            if signal_kind == "reg":
                existing.kind = "reg"
                existing.value = Value.unknown(existing.width)
            if width > existing.width:
                existing.width = width
                existing.value = (
                    Value.unknown(width) if existing.kind == "reg" else Value.high_z(width)
                )
            if signed:
                existing.signed = True
            return
        if kind in ("wire", "tri", "supply0", "supply1") and not decl.reg_flag:
            signal_kind = "wire"
        signal = Signal(decl.name, width, signal_kind, signed)
        if kind == "supply1":
            signal.value = Value.from_int((1 << width) - 1, width)
        elif kind == "supply0":
            signal.value = Value.from_int(0, width)
        instance.signals[decl.name] = signal

    def _elaborate_child(self, item: ast.Instance, parent: Instance, parent_env: Env) -> None:
        module = self.modules.get(item.module_name)
        if module is None:
            raise ElaborationError(f"module {item.module_name!r} not found")

        # Resolve parameter overrides in the parent's constant scope.
        overrides: dict[str, Value] = {}
        param_names = [
            d.name
            for d in module.items
            if isinstance(d, ast.Decl) and d.kind == "parameter"
        ]
        for position, arg in enumerate(item.params):
            value = eval_expr(arg.expr, _ConstScope(parent))
            if arg.name is not None:
                overrides[arg.name] = value
            elif position < len(param_names):
                overrides[param_names[position]] = value

        child = self._instantiate(item.name, module, parent, overrides)
        child_env = Env(self.sim, child)

        # Map connections to port names.
        connections: list[tuple[str, ast.Expr | None]] = []
        if any(arg.name is not None for arg in item.ports):
            for arg in item.ports:
                if arg.name is None:
                    raise ElaborationError("mixed named/positional connections")
                connections.append((arg.name, arg.expr))
        else:
            if len(item.ports) > len(module.port_names):
                raise ElaborationError(
                    f"too many connections for {item.module_name} {item.name}"
                )
            for port_name, arg in zip(module.port_names, item.ports):
                connections.append((port_name, arg.expr))

        for port_name, expr in connections:
            if expr is None:
                continue
            direction = child.port_directions.get(port_name)
            if direction is None:
                raise ElaborationError(
                    f"{item.module_name} has no port {port_name!r}"
                )
            port_ident = ast.Identifier(port_name)
            if direction == "input":
                assign = self.sim.make_cont_assign(child_env, port_ident, parent_env, expr)
            elif direction == "output":
                assign = self.sim.make_cont_assign(parent_env, expr, child_env, port_ident)
            else:
                raise ElaborationError("inout ports are not supported")
            self.sim.cont_assigns.append(assign)
