"""Ahead-of-time specialization of elaborated behaviour into closures.

The interpreter in :mod:`repro.sim.eval` / :mod:`repro.sim.processes`
re-dispatches on AST node types, re-resolves names through ``Env`` dict
lookups, recomputes lvalue widths, and rebuilds sensitivity lists on every
execution.  For the repair loop — which simulates thousands of mostly
identical candidates — that per-execution work dominates wall-clock.

This module compiles each process / continuous assignment **once** into
straight-line Python closures:

- expressions become ``fn(S) -> Value`` closures with the operator chosen
  at compile time and the assignment context width folded in as a constant;
- identifiers become list-index loads from a per-instance slot vector ``S``
  (``S[0]`` is the simulator, ``S[1]`` the instance's fallback ``Env``,
  the rest are ``Signal``/``Memory``/``NamedEvent`` objects or pre-resolved
  sensitivity item lists);
- statements without time controls become plain ``run(S)`` closures (no
  generator frames at all); suspending statements compile to generators
  that yield the same :class:`DelaySuspend`/:class:`EventSuspend` records
  the interpreter yields;
- sensitivity lists are resolved once at bind time instead of once per
  ``always`` iteration;
- lvalue widths and constant part-select bounds are folded at compile time.

Compiled closures run against the *same* runtime (``Scheduler``,
``Signal``, ``Memory``, ``Process``), so scheduler telemetry counters,
``$display`` output, trace records, and error strings are bit-identical to
the interpreter.  Anything the compiler does not specialize falls back to
the interpreter at the finest safe granularity: per-expression
(``eval_expr`` against the fallback ``Env``) or per-statement
(``yield from exec_stmt``) — the fallback *is* the interpreter, operating
on the same runtime objects, so parity is by construction.

Templates are cached per ``(module item, parameter signature)``.  Callers
evaluating many candidates against one persistent testbench pass a shared
cache (see :func:`repro.core.backend.evaluate_design_text`) so the
testbench half of every simulation is compiled once per worker process.
"""

from __future__ import annotations

import operator
from typing import Callable

from ..hdl import ast
from .elaborate import ContAssign
from .eval import EvalError, _bitwise, _reduction, eval_expr
from .logic import Value, truthiness
from .processes import (
    DelaySuspend,
    DisableEscape,
    EventSuspend,
    Process,
    _case_match,
    always_process,
    collect_read_names,
    exec_stmt,
    initial_process,
)
from .runtime import Instance, Memory, NamedEvent, Signal
from .simulator import Simulator, TraceRecord, _record_label

#: Shared 1-bit constants (values are immutable, sharing is safe).
_V_TRUE = Value(1, 1)
_V_FALSE = Value(1, 0)
_V_X = Value(1, 1, 1)


class _Uncompilable(Exception):
    """Internal: this construct needs the interpreter fallback."""


def _raiser(message: str) -> Callable:
    """An expression closure that raises ``EvalError(message)``."""

    def fn(S):
        raise EvalError(message)

    return fn


# ----------------------------------------------------------------------
# Compile-time scope: name -> slot / static metadata
# ----------------------------------------------------------------------


class _Scope:
    """Static name resolution for one module template.

    Resolution is done against an *exemplar* elaborated instance; any
    instance of the same module with the same parameter values yields
    identical metadata (elaboration is a deterministic function of the
    module AST and its parameters), which is what makes template sharing
    across instances and across candidate simulations sound.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        #: Slot specs beyond the two fixed slots: ("obj", name) resolves to
        #: ``instance.lookup(name)``; ("items", ((name, edge), ...)) to a
        #: pre-built sensitivity list.
        self.slot_specs: list[tuple] = []
        self._index: dict[tuple, int] = {}

    def _alloc(self, spec: tuple) -> int:
        idx = self._index.get(spec)
        if idx is None:
            idx = len(self.slot_specs) + 2  # S[0]=sim, S[1]=env
            self._index[spec] = idx
            self.slot_specs.append(spec)
        return idx

    def obj_slot(self, name: str) -> int:
        return self._alloc(("obj", name))

    def items_slot(self, entries: tuple[tuple[str, str], ...]) -> int:
        return self._alloc(("items", entries))

    # -- static classification ------------------------------------------

    def kind_of(self, name: str):
        inst = self.instance
        if name in inst.signals:
            return ("signal", inst.signals[name])
        if name in inst.memories:
            return ("memory", inst.memories[name])
        if name in inst.events:
            return ("event", inst.events[name])
        if name in inst.params:
            return ("param", inst.params[name])
        return None

    def is_memory(self, name: str) -> bool:
        return name in self.instance.memories

    def static_int(self, expr: ast.Expr) -> int | None:
        """Fold ``expr`` to a plain int when it is a defined literal or a
        parameter of this instance; None otherwise."""
        if isinstance(expr, ast.Number):
            if expr.bval:
                return None
            width = expr.width if expr.width is not None else 32
            return Value(width, expr.aval, expr.bval, expr.signed).to_int()
        if isinstance(expr, ast.Identifier):
            kind = self.kind_of(expr.name)
            if kind is not None and kind[0] == "param":
                value = kind[1]
                if value.is_fully_defined:
                    return value.to_int()
        return None


def _bind_slots(slot_specs: list[tuple], sim: Simulator, env) -> list:
    """Build the runtime slot vector for one instance."""
    inst = env.instance
    lookup = inst.lookup
    S: list = [sim, env]
    for kind, payload in slot_specs:
        if kind == "obj":
            S.append(lookup(payload))
        else:  # "items"
            S.append([(lookup(name), edge) for name, edge in payload])
    return S


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------


def _compile_expr(expr: ast.Expr, sc: _Scope, ctx: int | None) -> Callable:
    """Compile ``expr`` to ``fn(S) -> Value``, mirroring ``eval_expr``
    with the context width folded in.  Unsupported nodes fall back to the
    interpreter per-expression (exact semantics, just slower)."""
    try:
        return _compile_expr_strict(expr, sc, ctx)
    except _Uncompilable:
        return lambda S, _e=expr, _c=ctx: eval_expr(_e, S[1], _c)
    except RecursionError:
        raise
    except Exception:
        return lambda S, _e=expr, _c=ctx: eval_expr(_e, S[1], _c)


def _compile_expr_strict(expr: ast.Expr, sc: _Scope, ctx: int | None) -> Callable:
    if isinstance(expr, ast.Number):
        width = expr.width if expr.width is not None else 32
        v = Value(width, expr.aval, expr.bval, expr.signed)
        return lambda S: v
    if isinstance(expr, ast.RealNumber):
        v = Value.from_int(int(expr.value), 64)
        return lambda S: v
    if isinstance(expr, ast.StringConst):
        data = expr.text.encode("ascii", errors="replace")
        width = max(8 * len(data), 8)
        v = Value(width, int.from_bytes(data, "big") if data else 0)
        return lambda S: v
    if isinstance(expr, ast.Identifier):
        return _compile_identifier(expr.name, sc)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, sc, ctx)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, sc, ctx)
    if isinstance(expr, ast.Ternary):
        return _compile_ternary(expr, sc, ctx)
    if isinstance(expr, ast.Index):
        return _compile_index(expr, sc)
    if isinstance(expr, ast.PartSelect):
        return _compile_partselect(expr, sc)
    if isinstance(expr, ast.Concat):
        return _compile_concat(expr, sc)
    if isinstance(expr, ast.Repeat_):
        return _compile_repeat(expr, sc)
    if isinstance(expr, ast.FunctionCall):
        return _compile_call(expr, sc)
    raise _Uncompilable(type(expr).__name__)


def _compile_identifier(name: str, sc: _Scope) -> Callable:
    kind = sc.kind_of(name)
    if kind is None:
        # Same message Env.read raises, with the per-instance path read at
        # runtime so shared templates report the right hierarchy.
        def fn(S, _n=name):
            raise EvalError(f"unknown identifier {_n!r} in {S[1].instance.path}")

        return fn
    tag, obj = kind
    if tag == "signal":
        slot = sc.obj_slot(name)
        return lambda S, _i=slot: S[_i].value
    if tag == "param":
        return lambda S, _v=obj: _v
    if tag == "memory":
        return _raiser(f"memory {name!r} read without an index")
    return _raiser(f"named event {name!r} used as a value")


def _compile_unary(expr: ast.UnaryOp, sc: _Scope, ctx: int | None) -> Callable:
    op = expr.op
    if op in ("+", "-"):
        ofn = _compile_expr(expr.operand, sc, ctx)
        ctx0 = ctx or 0
        negate = op == "-"

        def fn(S):
            operand = ofn(S)
            width = operand.width if operand.width >= ctx0 else ctx0
            operand = operand.resized(width)
            if operand.bval:
                return Value.unknown(width)
            if negate:
                return Value.from_int(-operand.aval, width, operand.signed)
            return operand

        return fn
    ofn = _compile_expr(expr.operand, sc, None)
    if op == "!":

        def fn(S):
            operand = ofn(S)
            if operand.aval & ~operand.bval:
                return _V_FALSE
            return _V_X if operand.bval else _V_TRUE

        return fn
    if op == "~":

        def fn(S):
            operand = ofn(S)
            aval = (~operand.aval) & ((1 << operand.width) - 1)
            aval |= operand.bval
            return Value(operand.width, aval, operand.bval)

        return fn
    if op in ("&", "|", "^", "~&", "~|", "~^", "^~"):
        return lambda S, _op=op: _reduction(_op, ofn(S))
    return _raiser(f"unknown unary operator {op!r}")


def _div(lv: int, rv: int) -> int | None:
    if rv == 0:
        return None
    quotient = abs(lv) // abs(rv)
    return -quotient if (lv < 0) != (rv < 0) else quotient


def _mod(lv: int, rv: int) -> int | None:
    if rv == 0:
        return None
    remainder = abs(lv) % abs(rv)
    return -remainder if lv < 0 else remainder


def _pow(lv: int, rv: int) -> int | None:
    return None if rv < 0 or rv > 64 else lv**rv


#: Arithmetic operators as integer combinators; the last three return
#: None for an all-x result (x/0, x%0, a negative or huge exponent).
_ARITH_FNS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "**": _pow,
}
_BITWISE_OPS = frozenset({"&", "|", "^", "^~", "~^"})
_COMPARE_FNS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_SHIFT_OPS = frozenset({"<<", ">>", "<<<", ">>>"})


def _compile_binary(expr: ast.BinaryOp, sc: _Scope, ctx: int | None) -> Callable:
    """Each operator gets its own closure, chosen here, so an evaluation
    never tests the operator string."""
    op = expr.op
    if op in ("&&", "||"):
        lfn = _compile_expr(expr.left, sc, None)
        rfn = _compile_expr(expr.right, sc, None)
        conj = op == "&&"

        def fn(S):
            left = truthiness(lfn(S))
            right = truthiness(rfn(S))
            if conj:
                if left == "false" or right == "false":
                    return _V_FALSE
                if left == "true" and right == "true":
                    return _V_TRUE
                return _V_X
            if left == "true" or right == "true":
                return _V_TRUE
            if left == "false" and right == "false":
                return _V_FALSE
            return _V_X

        return fn

    ctx0 = ctx or 0
    if op in _SHIFT_OPS:
        lfn = _compile_expr(expr.left, sc, ctx)
        rfn = _compile_expr(expr.right, sc, None)
        return _shift(op, lfn, rfn, ctx0)

    operand_ctx = ctx if op in _ARITH_FNS or op in _BITWISE_OPS else None
    lfn = _compile_expr(expr.left, sc, operand_ctx)
    rfn = _compile_expr(expr.right, sc, operand_ctx)

    if op in ("===", "!=="):
        want = op == "==="

        def fn(S):
            return _V_TRUE if lfn(S).same_state(rfn(S)) is want else _V_FALSE

        return fn
    if op in _COMPARE_FNS:
        return _compare(_COMPARE_FNS[op], lfn, rfn)
    if op in _BITWISE_OPS:
        return _bitwise_op(op, lfn, rfn, ctx0)
    if op in _ARITH_FNS:
        return _arith(_ARITH_FNS[op], lfn, rfn, ctx0)
    return _raiser(f"unknown binary operator {op!r}")


def _shift(op: str, lfn: Callable, rfn: Callable, ctx0: int) -> Callable:
    """``<<``/``<<<``, ``>>`` and ``>>>`` (arithmetic only when signed)."""
    if op in ("<<", "<<<"):

        def fn(S):
            left = lfn(S)
            width = left.width if left.width >= ctx0 else ctx0
            left = left.resized(width)
            amount = rfn(S)
            if amount.bval:
                return Value.unknown(width)
            shift = amount.to_int()
            if shift < 0 or shift > 1 << 16:
                return Value.unknown(width)
            return Value(width, left.aval << shift, left.bval << shift, left.signed)

        return fn
    arithmetic = op == ">>>"

    def fn(S):
        left = lfn(S)
        width = left.width if left.width >= ctx0 else ctx0
        left = left.resized(width)
        amount = rfn(S)
        if amount.bval:
            return Value.unknown(width)
        shift = amount.to_int()
        if shift < 0 or shift > 1 << 16:
            return Value.unknown(width)
        if not (arithmetic and left.signed):
            return Value(width, left.aval >> shift, left.bval >> shift, left.signed)
        if left.bval:
            return Value.unknown(width)
        return Value.from_int(left.to_signed_int() >> shift, width, True)

    return fn


def _compare(cmp: Callable, lfn: Callable, rfn: Callable) -> Callable:
    """A relational/equality operator: the interned 1-bit constants."""

    def fn(S):
        left = lfn(S)
        right = rfn(S)
        if left.bval or right.bval:
            return _V_X
        if left.signed and right.signed:
            return _V_TRUE if cmp(left.to_signed_int(), right.to_signed_int()) else _V_FALSE
        return _V_TRUE if cmp(left.aval, right.aval) else _V_FALSE

    return fn


def _bitwise_op(op: str, lfn: Callable, rfn: Callable, ctx0: int) -> Callable:
    """A bitwise operator; fully defined operands skip the x/z planes."""
    if op == "&":
        defined = operator.and_
    elif op == "|":
        defined = operator.or_
    elif op == "^":
        defined = operator.xor
    else:  # ^~, ~^

        def defined(a: int, b: int) -> int:
            return ~(a ^ b)

    def fn(S):
        left = lfn(S)
        right = rfn(S)
        width = left.width if left.width >= right.width else right.width
        if width < ctx0:
            width = ctx0
        left = left.resized(width)
        right = right.resized(width)
        if left.bval or right.bval:
            return _bitwise(op, left, right, width)
        return Value(width, defined(left.aval, right.aval))

    return fn


def _arith(combine: Callable, lfn: Callable, rfn: Callable, ctx0: int) -> Callable:
    """One arithmetic operator; ``combine`` returns None for all-x."""

    def fn(S):
        left = lfn(S)
        right = rfn(S)
        width = left.width if left.width >= right.width else right.width
        if width < ctx0:
            width = ctx0
        signed = left.signed and right.signed
        left = left.resized(width)
        right = right.resized(width)
        if left.bval or right.bval:
            return Value.unknown(width)
        if signed:
            result = combine(left.to_signed_int(), right.to_signed_int())
        else:
            result = combine(left.aval, right.aval)
        if result is None:
            return Value.unknown(width)
        return Value.from_int(result, width, signed)

    return fn


def _compile_ternary(expr: ast.Ternary, sc: _Scope, ctx: int | None) -> Callable:
    cfn = _compile_expr(expr.cond, sc, None)
    tfn = _compile_expr(expr.true_expr, sc, ctx)
    ffn = _compile_expr(expr.false_expr, sc, ctx)

    def fn(S):
        cond = cfn(S)
        if cond.aval & ~cond.bval:
            return tfn(S)
        if not cond.bval:
            return ffn(S)
        true_val = tfn(S)
        false_val = ffn(S)
        width = max(true_val.width, false_val.width)
        true_val = true_val.resized(width)
        false_val = false_val.resized(width)
        mask = (1 << width) - 1
        agree = (
            ~(true_val.aval ^ false_val.aval)
            & ~(true_val.bval | false_val.bval)
            & mask
        )
        aval = (true_val.aval & agree) | (mask & ~agree)
        return Value(width, aval, mask & ~agree)

    return fn


def _compile_index(expr: ast.Index, sc: _Scope) -> Callable:
    ifn = _compile_expr(expr.index, sc, None)
    if isinstance(expr.target, ast.Identifier) and sc.is_memory(expr.target.name):
        name = expr.target.name
        slot = sc.obj_slot(name)

        def fn(S):
            index = ifn(S)
            if index.bval:
                raise EvalError(f"memory index for {name} is x/z")
            return S[slot].read(index.to_int())

        return fn
    tfn = _compile_expr(expr.target, sc, None)

    def fn(S):
        index = ifn(S)
        target = tfn(S)
        if index.bval:
            return Value.unknown(1)
        return target.select_bit(index.to_int())

    return fn


def _compile_partselect(expr: ast.PartSelect, sc: _Scope) -> Callable:
    tfn = _compile_expr(expr.target, sc, None)
    mfn = _compile_expr(expr.msb, sc, None)
    lfn = _compile_expr(expr.lsb, sc, None)

    def fn(S):
        target = tfn(S)
        msb = mfn(S)
        lsb = lfn(S)
        if msb.bval or lsb.bval:
            return Value.unknown(max(target.width, 1))
        return target.select_range(msb.to_int(), lsb.to_int())

    return fn


def _compile_concat(expr: ast.Concat, sc: _Scope) -> Callable:
    if not expr.parts:
        return _raiser("empty concatenation")
    fns = [_compile_expr(p, sc, None) for p in expr.parts]
    if len(fns) == 1:
        return fns[0]
    head, rest = fns[0], tuple(fns[1:])

    def fn(S):
        result = head(S)
        for part in rest:
            result = result.concat(part(S))
        return result

    return fn


def _compile_repeat(expr: ast.Repeat_, sc: _Scope) -> Callable:
    cfn = _compile_expr(expr.count, sc, None)
    vfn = _compile_expr(expr.value, sc, None)

    def fn(S):
        count = cfn(S)
        if count.bval:
            raise EvalError("replication count is x/z")
        value = vfn(S)
        n = count.to_int()
        if n <= 0 or n > 4096:
            raise EvalError(f"bad replication count {n}")
        result = value
        for _ in range(n - 1):
            result = result.concat(value)
        return result

    return fn


def _compile_call(expr: ast.FunctionCall, sc: _Scope) -> Callable:
    afns = tuple(_compile_expr(a, sc, None) for a in expr.args)
    name = expr.name
    if name.startswith("$"):
        return lambda S: S[0].system_function(name, [a(S) for a in afns])
    # User functions run through the interpreter (run_function) via the
    # fallback Env — identical semantics including the statement budget.
    return lambda S: S[1].call_function(name, [a(S) for a in afns])


# ----------------------------------------------------------------------
# Lvalue compilation
# ----------------------------------------------------------------------


def _noop() -> None:
    return None


class _LValue:
    """A compiled lvalue with a statically known width.

    ``assign(S, value)`` performs a blocking-style immediate assignment;
    ``make_nba(S, value)`` resolves indices *now* (IEEE non-blocking
    semantics) and returns the callback to schedule in the NBA region.
    """

    __slots__ = ("width", "assign", "make_nba")

    def __init__(self, width: int, assign: Callable, make_nba: Callable):
        self.width = width
        self.assign = assign
        self.make_nba = make_nba


def _bad_lvalue(width: int, assign: Callable) -> _LValue:
    """An lvalue whose resolution always fails at runtime.

    The interpreter computes ``lhs_width`` (which does not raise), then
    evaluates the RHS, and only raises inside ``resolve_lvalue`` — so the
    raising closure sits in the assign/make_nba position to preserve the
    side-effect order exactly."""
    return _LValue(width, assign, lambda S, v: assign(S, v))


def _compile_lvalue(lhs: ast.Expr, sc: _Scope) -> _LValue | None:
    """Compile an lvalue; None means the enclosing statement must fall
    back to the interpreter (dynamic width)."""
    if isinstance(lhs, ast.Identifier):
        name = lhs.name
        kind = sc.kind_of(name)
        if kind is not None and kind[0] == "signal":
            slot = sc.obj_slot(name)
            width = kind[1].width

            def assign(S, v, _i=slot):
                S[_i].set_value(v, S[0])

            def make_nba(S, v, _i=slot):
                sig = S[_i]
                sim = S[0]
                return lambda: sig.set_value(v, sim)

            return _LValue(width, assign, make_nba)
        # Matches Env.lhs_width for non-signal identifiers, then the
        # resolve_lvalue error (with the runtime instance path).
        width = kind[1].word_width if kind is not None and kind[0] == "memory" else 32

        def raise_assign(S, v, _n=name):
            raise EvalError(f"cannot assign to {_n!r} in {S[1].instance.path}")

        return _bad_lvalue(width, raise_assign)

    if isinstance(lhs, ast.Index):
        if isinstance(lhs.target, ast.Identifier) and sc.is_memory(lhs.target.name):
            memory = sc.kind_of(lhs.target.name)[1]
            slot = sc.obj_slot(lhs.target.name)
            ifn = _compile_expr(lhs.index, sc, None)

            def assign(S, v):
                index = ifn(S)
                if index.bval:
                    return
                S[slot].write(index.to_int(), v, S[0])

            def make_nba(S, v):
                index = ifn(S)
                if index.bval:
                    return _noop
                i = index.to_int()
                mem = S[slot]
                sim = S[0]
                return lambda: mem.write(i, v, sim)

            return _LValue(memory.word_width, assign, make_nba)
        return _compile_bits_lvalue(lhs.target, sc, index=lhs.index)

    if isinstance(lhs, ast.PartSelect):
        hi = sc.static_int(lhs.msb)
        lo = sc.static_int(lhs.lsb)
        if hi is None or lo is None:
            return None  # dynamic width: whole statement falls back
        if hi < lo:
            hi, lo = lo, hi
        return _compile_bits_lvalue(lhs.target, sc, bounds=(hi, lo))

    if isinstance(lhs, ast.Concat):
        parts = []
        for part in lhs.parts:
            # Only plain identifier parts: anything with an index would
            # evaluate it at a different point than resolve_lvalue does.
            if not isinstance(part, ast.Identifier):
                return None
            sub = _compile_lvalue(part, sc)
            if sub is None:
                return None
            parts.append(sub)
        if not parts:
            return None
        total = sum(p.width for p in parts)
        spans = []
        offset = total
        for p in parts:
            offset -= p.width
            spans.append((p, offset + p.width - 1, offset))
        spans = tuple(spans)

        def assign(S, v):
            v = v.resized(total)
            for part, msb, lsb in spans:
                part.assign(S, v.select_range(msb, lsb))

        def make_nba(S, v):
            v = v.resized(total)
            callbacks = [
                part.make_nba(S, v.select_range(msb, lsb))
                for part, msb, lsb in spans
            ]

            def apply() -> None:
                for cb in callbacks:
                    cb()

            return apply

        return _LValue(total, assign, make_nba)

    return None


def _compile_bits_lvalue(
    target: ast.Expr,
    sc: _Scope,
    index: ast.Expr | None = None,
    bounds: tuple[int, int] | None = None,
) -> _LValue:
    """Bit-select (``index``) or constant part-select (``bounds``) lvalue.

    Mirrors ``Env._signal_bits_setter`` including its error messages and
    the order in which it raises (before the index is evaluated)."""
    width = 1 if bounds is None else bounds[0] - bounds[1] + 1
    if not isinstance(target, ast.Identifier):
        def raise_assign(S, v):
            raise EvalError("bit/part select target must be a simple name")

        return _bad_lvalue(width, raise_assign)
    name = target.name
    kind = sc.kind_of(name)
    if kind is None or kind[0] != "signal":
        def raise_assign(S, v, _n=name):
            raise EvalError(f"cannot part-assign {_n!r}")

        return _bad_lvalue(width, raise_assign)
    slot = sc.obj_slot(name)
    if bounds is not None:
        hi, lo = bounds

        def assign(S, v):
            sig = S[slot]
            sig.set_value(sig.value.with_bits(hi, lo, v), S[0])

        def make_nba(S, v):
            sig = S[slot]
            sim = S[0]
            return lambda: sig.set_value(sig.value.with_bits(hi, lo, v), sim)

        return _LValue(width, assign, make_nba)
    ifn = _compile_expr(index, sc, None)

    def assign(S, v):
        idx = ifn(S)
        if idx.bval:
            return
        i = idx.to_int()
        sig = S[slot]
        sig.set_value(sig.value.with_bits(i, i, v), S[0])

    def make_nba(S, v):
        idx = ifn(S)
        if idx.bval:
            return _noop
        i = idx.to_int()
        sig = S[slot]
        sim = S[0]
        return lambda: sig.set_value(sig.value.with_bits(i, i, v), sim)

    return _LValue(1, assign, make_nba)


# ----------------------------------------------------------------------
# Statement compilation
# ----------------------------------------------------------------------

#: A compiled statement: (sync, fn).  ``sync`` means ``fn(S)`` runs to
#: completion without suspending; otherwise ``fn(S)`` is a generator
#: function yielding Suspend records.  ``None`` stands for a null
#: statement (no budget charge, nothing to do).
_CStmt = tuple[bool, Callable] | None


def _fallback_stmt(stmt: ast.Stmt) -> _CStmt:
    """Interpret ``stmt`` through exec_stmt (exact semantics)."""

    def gen(S, _s=stmt):
        yield from exec_stmt(_s, S[1])

    return (False, gen)


def _compile_stmt(stmt: ast.Stmt | None, sc: _Scope) -> _CStmt:
    if stmt is None or isinstance(stmt, ast.NullStmt):
        return None
    try:
        return _compile_stmt_strict(stmt, sc)
    except _Uncompilable:
        return _fallback_stmt(stmt)
    except RecursionError:
        raise
    except Exception:
        return _fallback_stmt(stmt)


def _compile_stmt_strict(stmt: ast.Stmt, sc: _Scope) -> _CStmt:
    if isinstance(stmt, ast.Block):
        return _compile_block(stmt, sc)
    if isinstance(stmt, ast.BlockingAssign):
        return _compile_blocking(stmt, sc)
    if isinstance(stmt, ast.NonBlockingAssign):
        return _compile_nonblocking(stmt, sc)
    if isinstance(stmt, ast.If):
        return _compile_if(stmt, sc)
    if isinstance(stmt, ast.Case):
        return _compile_case(stmt, sc)
    if isinstance(stmt, ast.For):
        return _compile_for(stmt, sc)
    if isinstance(stmt, ast.While):
        return _compile_while(stmt, sc)
    if isinstance(stmt, ast.RepeatStmt):
        return _compile_repeat_stmt(stmt, sc)
    if isinstance(stmt, ast.Forever):
        return _compile_forever(stmt, sc)
    if isinstance(stmt, ast.Wait):
        return _compile_wait(stmt, sc)
    if isinstance(stmt, ast.DelayStmt):
        return _compile_delay_stmt(stmt, sc)
    if isinstance(stmt, ast.EventControl):
        return _compile_event_control(stmt, sc)
    if isinstance(stmt, ast.EventTrigger):
        return _compile_event_trigger(stmt, sc)
    if isinstance(stmt, ast.SysTaskCall):
        return _compile_systask(stmt, sc)
    if isinstance(stmt, ast.TaskCall):
        # Tasks run through the interpreter (argument frames, copy-back,
        # possible time controls) — exact semantics via exec_stmt.
        return _fallback_stmt(stmt)
    if isinstance(stmt, ast.Disable):
        name = stmt.name

        def run(S):
            S[0].consume_step()
            raise DisableEscape(name)

        return (True, run)
    message = f"cannot execute {type(stmt).__name__}"

    def run(S):
        S[0].consume_step()
        raise EvalError(message)

    return (True, run)


def _gen_steps(steps: tuple, S):
    for sync, f in steps:
        if sync:
            f(S)
        else:
            yield from f(S)


def _compile_block(stmt: ast.Block, sc: _Scope) -> _CStmt:
    steps = tuple(
        c for c in (_compile_stmt(inner, sc) for inner in stmt.stmts) if c is not None
    )
    name = stmt.name
    sync = all(s for s, _f in steps)
    if name is None:
        if sync:

            def run(S):
                S[0].consume_step()
                for _sync, f in steps:
                    f(S)

            return (True, run)

        def gen(S):
            S[0].consume_step()
            yield from _gen_steps(steps, S)

        return (False, gen)
    if sync:

        def run(S):
            S[0].consume_step()
            try:
                for _sync, f in steps:
                    f(S)
            except DisableEscape as escape:
                if escape.name != name:
                    raise

        return (True, run)

    def gen(S):
        S[0].consume_step()
        try:
            yield from _gen_steps(steps, S)
        except DisableEscape as escape:
            if escape.name != name:
                raise

    return (False, gen)


def _compile_delay_expr(delay: ast.Expr, sc: _Scope):
    """Compile a delay operand to a ticks closure (``_delay_ticks``)."""
    const = sc.static_int(delay)
    if const is not None:
        ticks = max(const, 0)
        return lambda S: ticks
    dfn = _compile_expr(delay, sc, None)

    def fn(S):
        value = dfn(S)
        if value.bval:
            return 0
        ticks = value.to_int()
        return ticks if ticks > 0 else 0

    return fn


def _compile_blocking(stmt: ast.BlockingAssign, sc: _Scope) -> _CStmt:
    lv = _compile_lvalue(stmt.lhs, sc)
    if lv is None:
        raise _Uncompilable("dynamic lvalue")
    rfn = _compile_expr(stmt.rhs, sc, lv.width)
    assign = lv.assign
    if stmt.delay is None:

        def run(S):
            S[0].consume_step()
            assign(S, rfn(S))

        return (True, run)
    tickfn = _compile_delay_expr(stmt.delay, sc)

    def gen(S):
        S[0].consume_step()
        value = rfn(S)
        yield DelaySuspend(tickfn(S))
        assign(S, value)

    return (False, gen)


def _compile_nonblocking(stmt: ast.NonBlockingAssign, sc: _Scope) -> _CStmt:
    lv = _compile_lvalue(stmt.lhs, sc)
    if lv is None:
        raise _Uncompilable("dynamic lvalue")
    rfn = _compile_expr(stmt.rhs, sc, lv.width)
    make_nba = lv.make_nba
    if stmt.delay is None:

        def run(S):
            S[0].consume_step()
            S[0].scheduler.schedule_nba(make_nba(S, rfn(S)))

        return (True, run)
    tickfn = _compile_delay_expr(stmt.delay, sc)

    def run(S):
        S[0].consume_step()
        callback = make_nba(S, rfn(S))
        S[0].scheduler.schedule_at(tickfn(S), callback, region="nba")

    return (True, run)


def _compile_if(stmt: ast.If, sc: _Scope) -> _CStmt:
    cfn = _compile_expr(stmt.cond, sc, None)
    then_c = _compile_stmt(stmt.then_stmt, sc)
    else_c = _compile_stmt(stmt.else_stmt, sc)
    if (then_c is None or then_c[0]) and (else_c is None or else_c[0]):
        then_run = then_c[1] if then_c is not None else None
        else_run = else_c[1] if else_c is not None else None

        def run(S):
            S[0].consume_step()
            cond = cfn(S)
            if cond.aval & ~cond.bval:  # truthiness(cond) == "true"
                if then_run is not None:
                    then_run(S)
            elif else_run is not None:
                else_run(S)

        return (True, run)

    def gen(S):
        S[0].consume_step()
        cond = cfn(S)
        branch = then_c if cond.aval & ~cond.bval else else_c
        if branch is None:
            return
        sync, f = branch
        if sync:
            f(S)
        else:
            yield from f(S)

    return (False, gen)


def _compile_case(stmt: ast.Case, sc: _Scope) -> _CStmt:
    kind = stmt.kind
    subject_fn = _compile_expr(stmt.expr, sc, None)
    arms: list[tuple[tuple, _CStmt]] = []
    default_c: _CStmt = None
    has_default = False
    for item in stmt.items:
        compiled = _compile_stmt(item.stmt, sc)
        if not item.exprs:
            default_c = compiled
            has_default = True
            continue
        labels = tuple(_compile_expr(e, sc, None) for e in item.exprs)
        arms.append((labels, compiled))
    all_sync = all(
        c is None or c[0] for _labels, c in arms
    ) and (default_c is None or default_c[0])
    arms_t = tuple(arms)

    if all_sync:

        def run(S):
            S[0].consume_step()
            subject = subject_fn(S)
            for labels, compiled in arms_t:
                for lfn in labels:
                    if _case_match(kind, subject, lfn(S)):
                        if compiled is not None:
                            compiled[1](S)
                        return
            if has_default and default_c is not None:
                default_c[1](S)

        return (True, run)

    def gen(S):
        S[0].consume_step()
        subject = subject_fn(S)
        for labels, compiled in arms_t:
            for lfn in labels:
                if _case_match(kind, subject, lfn(S)):
                    if compiled is not None:
                        sync, f = compiled
                        if sync:
                            f(S)
                        else:
                            yield from f(S)
                    return
        if has_default and default_c is not None:
            sync, f = default_c
            if sync:
                f(S)
            else:
                yield from f(S)

    return (False, gen)


def _compile_for(stmt: ast.For, sc: _Scope) -> _CStmt:
    init_c = _compile_stmt(stmt.init, sc)
    cfn = _compile_expr(stmt.cond, sc, None)
    step_c = _compile_stmt(stmt.step, sc)
    body_c = _compile_stmt(stmt.body, sc)
    parts = [init_c, step_c, body_c]
    if all(c is None or c[0] for c in parts):
        init_run = init_c[1] if init_c is not None else None
        body_run = body_c[1] if body_c is not None else None
        step_run = step_c[1] if step_c is not None else None

        def run(S):
            sim = S[0]
            sim.consume_step()
            if init_run is not None:
                init_run(S)
            while truthiness(cfn(S)) == "true":
                sim.consume_step()
                if body_run is not None:
                    body_run(S)
                if step_run is not None:
                    step_run(S)

        return (True, run)

    def gen(S):
        sim = S[0]
        sim.consume_step()
        if init_c is not None:
            sync, f = init_c
            if sync:
                f(S)
            else:
                yield from f(S)
        while truthiness(cfn(S)) == "true":
            sim.consume_step()
            for c in (body_c, step_c):
                if c is None:
                    continue
                sync, f = c
                if sync:
                    f(S)
                else:
                    yield from f(S)

    return (False, gen)


def _compile_while(stmt: ast.While, sc: _Scope) -> _CStmt:
    cfn = _compile_expr(stmt.cond, sc, None)
    body_c = _compile_stmt(stmt.body, sc)
    if body_c is None or body_c[0]:
        body_run = body_c[1] if body_c is not None else None

        def run(S):
            sim = S[0]
            sim.consume_step()
            while truthiness(cfn(S)) == "true":
                sim.consume_step()
                if body_run is not None:
                    body_run(S)

        return (True, run)
    body_gen = body_c[1]

    def gen(S):
        sim = S[0]
        sim.consume_step()
        while truthiness(cfn(S)) == "true":
            sim.consume_step()
            yield from body_gen(S)

    return (False, gen)


def _compile_repeat_stmt(stmt: ast.RepeatStmt, sc: _Scope) -> _CStmt:
    cfn = _compile_expr(stmt.count, sc, None)
    body_c = _compile_stmt(stmt.body, sc)
    if body_c is None or body_c[0]:
        body_run = body_c[1] if body_c is not None else None

        def run(S):
            sim = S[0]
            sim.consume_step()
            count = cfn(S)
            iterations = count.to_int() if not count.bval else 0
            for _ in range(iterations if iterations > 0 else 0):
                sim.consume_step()
                if body_run is not None:
                    body_run(S)

        return (True, run)
    body_gen = body_c[1]

    def gen(S):
        sim = S[0]
        sim.consume_step()
        count = cfn(S)
        iterations = count.to_int() if not count.bval else 0
        for _ in range(iterations if iterations > 0 else 0):
            sim.consume_step()
            yield from body_gen(S)

    return (False, gen)


def _compile_forever(stmt: ast.Forever, sc: _Scope) -> _CStmt:
    body_c = _compile_stmt(stmt.body, sc)
    if body_c is None or body_c[0]:
        # A forever loop with no time controls terminates only through the
        # statement budget — same as the interpreter.
        body_run = body_c[1] if body_c is not None else None

        def run(S):
            sim = S[0]
            sim.consume_step()
            while True:
                sim.consume_step()
                if body_run is not None:
                    body_run(S)

        return (True, run)
    body_gen = body_c[1]

    def gen(S):
        sim = S[0]
        sim.consume_step()
        while True:
            sim.consume_step()
            yield from body_gen(S)

    return (False, gen)


def _level_entries(node: ast.Node | None, sc: _Scope) -> tuple[tuple[str, str], ...]:
    """Static counterpart of ``_level_items``: sorted read names that
    resolve to waitables in the exemplar instance."""
    if node is None:
        return ()
    entries = []
    for name in sorted(collect_read_names(node)):
        kind = sc.kind_of(name)
        if kind is not None and kind[0] in ("signal", "memory", "event"):
            entries.append((name, "level"))
    return tuple(entries)


def _senslist_entries(
    senslist: ast.SensList, sc: _Scope, body: ast.Stmt | None
) -> tuple[tuple[str, str], ...] | str:
    """Static counterpart of ``resolve_senslist``.

    Returns the (name, edge) entries, or the error message the interpreter
    would raise on every execution."""
    entries: list[tuple[str, str]] = []
    for item in senslist.items:
        if item.edge == "all":
            entries.extend(_level_entries(body, sc))
            continue
        signal = item.signal
        if isinstance(signal, ast.Identifier):
            kind = sc.kind_of(signal.name)
            if kind is None or kind[0] == "param":
                return f"cannot wait on {signal.name!r}"
            entries.append((signal.name, item.edge))
        elif signal is not None:
            entries.extend(_level_entries(signal, sc))
    if not entries:
        return "empty sensitivity list after resolution"
    return tuple(entries)


def _compile_wait(stmt: ast.Wait, sc: _Scope) -> _CStmt:
    cfn = _compile_expr(stmt.cond, sc, None)
    entries = _level_entries(stmt.cond, sc)
    items_slot = sc.items_slot(entries) if entries else None
    body_c = _compile_stmt(stmt.body, sc)

    def gen(S):
        S[0].consume_step()
        while truthiness(cfn(S)) != "true":
            if items_slot is None:
                raise EvalError("wait condition has no waitable signals")
            yield EventSuspend(S[items_slot])
        if body_c is not None:
            sync, f = body_c
            if sync:
                f(S)
            else:
                yield from f(S)

    return (False, gen)


def _compile_delay_stmt(stmt: ast.DelayStmt, sc: _Scope) -> _CStmt:
    tickfn = _compile_delay_expr(stmt.delay, sc)
    body_c = _compile_stmt(stmt.body, sc)

    def gen(S):
        S[0].consume_step()
        yield DelaySuspend(tickfn(S))
        if body_c is not None:
            sync, f = body_c
            if sync:
                f(S)
            else:
                yield from f(S)

    return (False, gen)


def _compile_event_control(stmt: ast.EventControl, sc: _Scope) -> _CStmt:
    resolved = _senslist_entries(stmt.senslist, sc, stmt.body)
    if isinstance(resolved, str):
        message = resolved

        def bad(S):
            S[0].consume_step()
            raise EvalError(message)

        return (True, bad)
    items_slot = sc.items_slot(resolved)
    body_c = _compile_stmt(stmt.body, sc)

    def gen(S):
        S[0].consume_step()
        yield EventSuspend(S[items_slot])
        if body_c is not None:
            sync, f = body_c
            if sync:
                f(S)
            else:
                yield from f(S)

    return (False, gen)


def _compile_event_trigger(stmt: ast.EventTrigger, sc: _Scope) -> _CStmt:
    name = stmt.name
    if name not in sc.instance.events:
        message = f"unknown event {name!r}"

        def bad(S):
            S[0].consume_step()
            raise EvalError(message)

        return (True, bad)
    slot = sc.obj_slot(name)

    def run(S):
        S[0].consume_step()
        S[slot].trigger(S[0])

    return (True, run)


def _compile_systask(stmt: ast.SysTaskCall, sc: _Scope) -> _CStmt:
    if stmt.name == "$cirfix_record":
        return _compile_record(stmt, sc)

    # exec_systask is a generator that never actually yields; draining it
    # preserves exceptions ($finish → FinishRequest) and ordering.
    def run(S, _s=stmt):
        S[0].consume_step()
        for _ in S[0].exec_systask(_s, S[1]):
            pass  # pragma: no cover - exec_systask never yields

    return (True, run)


def _compile_record(stmt: ast.SysTaskCall, sc: _Scope) -> _CStmt:
    """``$cirfix_record(...)``: sample at the end of this slot, reading
    each argument through a compiled closure.  Mirrors
    ``Simulator._schedule_record``, which stays the reference."""
    columns = tuple(
        (_record_label(arg), _compile_expr(arg, sc, None)) for arg in stmt.args
    )

    def run(S):
        sim = S[0]
        sim.consume_step()
        sample_time = sim.scheduler.time

        def record() -> None:
            values: dict[str, Value] = {}
            for label, fn in columns:
                try:
                    values[label] = fn(S)
                except EvalError:
                    values[label] = Value.unknown(1)
            sim.trace.append(TraceRecord(sample_time, values))

        sim.scheduler.schedule_postponed_once(record)

    return (True, run)


# ----------------------------------------------------------------------
# Process / continuous-assign templates
# ----------------------------------------------------------------------


class _ProcessTemplate:
    """A compiled always/initial item, bindable to any matching instance."""

    __slots__ = ("slot_specs", "build")

    def __init__(self, slot_specs: list[tuple], build: Callable):
        self.slot_specs = slot_specs
        self.build = build

    def bind(self, sim: Simulator, env) -> object:
        return self.build(_bind_slots(self.slot_specs, sim, env))


def _compile_always(item: ast.Always, sc: _Scope) -> _ProcessTemplate:
    body_c = _compile_stmt(item.body, sc)
    if item.senslist is None:

        def build(S):
            def gen():
                sim = S[0]
                if body_c is None:
                    while True:
                        sim.consume_step()
                elif body_c[0]:
                    run = body_c[1]
                    while True:
                        sim.consume_step()
                        run(S)
                else:
                    body_gen = body_c[1]
                    while True:
                        sim.consume_step()
                        yield from body_gen(S)

            return gen()

        return _ProcessTemplate(sc.slot_specs, build)

    resolved = _senslist_entries(item.senslist, sc, item.body)
    if isinstance(resolved, str):
        message = resolved

        def build(S):
            def gen():
                raise EvalError(message)
                yield  # pragma: no cover - raise precedes the first yield

            return gen()

        return _ProcessTemplate(sc.slot_specs, build)
    items_slot = sc.items_slot(resolved)

    def build(S):
        items = S[items_slot]
        suspend = EventSuspend(items)

        def gen():
            if body_c is None:
                while True:
                    yield suspend
            elif body_c[0]:
                run = body_c[1]
                while True:
                    yield suspend
                    run(S)
            else:
                body_gen = body_c[1]
                while True:
                    yield suspend
                    yield from body_gen(S)

        return gen()

    return _ProcessTemplate(sc.slot_specs, build)


def _compile_initial(item: ast.Initial, sc: _Scope) -> _ProcessTemplate:
    body_c = _compile_stmt(item.body, sc)

    def build(S):
        if body_c is None:

            def empty():
                return
                yield  # pragma: no cover

            return empty()
        if body_c[0]:
            run = body_c[1]

            def gen():
                run(S)
                return
                yield  # pragma: no cover

            return gen()
        return body_c[1](S)

    return _ProcessTemplate(sc.slot_specs, build)


class CompiledContAssign:
    """Compiled counterpart of :class:`repro.sim.elaborate.ContAssign`."""

    __slots__ = ("sim", "_rhs_fn", "_delay_fn", "_assign", "_S_lhs", "_S_rhs", "_rhs_ast", "_rhs_instance")

    def __init__(self, sim, rhs_fn, delay_fn, assign, S_lhs, S_rhs, rhs_ast, rhs_instance):
        self.sim = sim
        self._rhs_fn = rhs_fn
        self._delay_fn = delay_fn
        self._assign = assign
        self._S_lhs = S_lhs
        self._S_rhs = S_rhs
        self._rhs_ast = rhs_ast
        self._rhs_instance = rhs_instance

    def install(self) -> None:
        """Subscribe to RHS fan-in and schedule the initial evaluation."""
        for name in sorted(collect_read_names(self._rhs_ast)):
            target = self._rhs_instance.lookup(name)
            if isinstance(target, (Signal, Memory)):
                target.subscribe(self.update)
        self.sim.scheduler.schedule_active(self.update)

    def update(self) -> None:
        """Re-evaluate the RHS and drive the LHS (with optional delay)."""
        sim = self.sim
        sim.consume_step()
        try:
            value = self._rhs_fn(self._S_rhs)
        except (EvalError, ValueError, OverflowError) as exc:
            sim.note_error(f"continuous assign: {exc}")
            return
        if self._delay_fn is not None:
            try:
                ticks = self._delay_fn(self._S_rhs).to_int()
            except EvalError:
                ticks = 0
            if ticks > 0:
                sim.scheduler.schedule_at(ticks, lambda: self._apply(value))
                return
        try:
            self._assign(self._S_lhs, value)
        except (EvalError, ValueError, OverflowError) as exc:
            sim.note_error(f"continuous assign target: {exc}")

    def _apply(self, value: Value) -> None:
        try:
            self._assign(self._S_lhs, value)
        except (EvalError, ValueError, OverflowError) as exc:
            self.sim.note_error(f"continuous assign target: {exc}")


def _param_sig(instance: Instance) -> tuple:
    return tuple(
        sorted(
            (name, v.width, v.aval, v.bval, v.signed)
            for name, v in instance.params.items()
        )
    )


class DesignCompiler:
    """Per-simulation compile driver with template caching.

    ``shared_cache`` (optional) persists across simulations for modules
    whose ``id()`` appears in ``shared_module_ids`` — the testbench half of
    a candidate evaluation.  Cache entries hold a strong reference to the
    AST item, so a cached key can never be aliased by id reuse.
    """

    def __init__(self, shared_cache: dict | None = None, shared_module_ids: frozenset = frozenset()):
        self.shared_cache = shared_cache if shared_cache is not None else {}
        self.shared_module_ids = shared_module_ids
        self.local_cache: dict = {}

    def _template(self, item, instance: Instance, compile_fn) -> _ProcessTemplate:
        cache = (
            self.shared_cache
            if id(instance.module) in self.shared_module_ids
            else self.local_cache
        )
        key = (id(item), _param_sig(instance))
        entry = cache.get(key)
        if entry is None or entry[0] is not item:
            template = compile_fn(item, _Scope(instance))
            entry = (item, template)
            cache[key] = entry
        return entry[1]

    def always_template(self, item: ast.Always, instance: Instance) -> _ProcessTemplate:
        """Template (cached) for an ``always`` item in ``instance``."""
        return self._template(item, instance, _compile_always)

    def initial_template(self, item: ast.Initial, instance: Instance) -> _ProcessTemplate:
        """Template (cached) for an ``initial`` item in ``instance``."""
        return self._template(item, instance, _compile_initial)


class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` that runs compiled behaviour.

    Construction, the run loop, system tasks, tracing, and the scheduler
    are all inherited; only the factory hooks that turn elaborated items
    into runnable behaviour differ.  Any item the compiler cannot handle
    is built by the interpreter instead, so a ``CompiledSimulator`` never
    fails where a ``Simulator`` would succeed.
    """

    def __init__(
        self,
        source: ast.Source | str,
        top: str | None = None,
        max_steps: int = 5_000_000,
        seed: int = 0,
        shared_cache: dict | None = None,
        shared_module_ids: frozenset = frozenset(),
    ):
        self._compiler = DesignCompiler(shared_cache, shared_module_ids)
        super().__init__(source, top, max_steps, seed)

    # -- factory hooks ---------------------------------------------------

    def make_always(self, item: ast.Always, env) -> Process:
        try:
            template = self._compiler.always_template(item, env.instance)
            gen = template.bind(self, env)
        except RecursionError:
            raise
        except Exception:
            return always_process(self, item, env)
        return Process(self, gen, f"always@{env.instance.path}")

    def make_initial(self, item: ast.Initial, env) -> Process:
        try:
            template = self._compiler.initial_template(item, env.instance)
            gen = template.bind(self, env)
        except RecursionError:
            raise
        except Exception:
            return initial_process(self, item, env)
        return Process(self, gen, f"initial@{env.instance.path}")

    def make_cont_assign(self, lhs_env, lhs, rhs_env, rhs, delay=None):
        try:
            lhs_scope = _Scope(lhs_env.instance)
            lv = _compile_lvalue(lhs, lhs_scope)
            if lv is None:
                raise _Uncompilable("dynamic continuous-assign lvalue")
            rhs_scope = _Scope(rhs_env.instance)
            rhs_fn = _compile_expr(rhs, rhs_scope, lv.width)
            delay_fn = (
                _compile_expr(delay, rhs_scope, None) if delay is not None else None
            )
            return CompiledContAssign(
                self,
                rhs_fn,
                delay_fn,
                lv.assign,
                _bind_slots(lhs_scope.slot_specs, self, lhs_env),
                _bind_slots(rhs_scope.slot_specs, self, rhs_env),
                rhs,
                rhs_env.instance,
            )
        except RecursionError:
            raise
        except Exception:
            return ContAssign(self, lhs_env, lhs, rhs_env, rhs, delay)
