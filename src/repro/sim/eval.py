"""Expression evaluation with IEEE-1364 four-state semantics.

The evaluator interprets :mod:`repro.hdl.ast` expression trees against an
:class:`EvalScope` (implemented by the simulator runtime).  X-propagation
follows the standard: arithmetic with any x/z operand bit yields all-x,
bitwise operators use the per-bit truth tables, comparisons other than
``===``/``!==`` yield x when operands are not fully defined, and an x
condition in a ternary merges the two branches bit-wise.

Width rules follow Verilog's context-determined sizing closely enough for
RTL code: unsized literals are 32-bit, binary arithmetic/bitwise operands
are extended to the larger operand width (and to the assignment context
width when provided), comparisons and reductions are 1-bit self-determined.
"""

from __future__ import annotations

from typing import Protocol

from ..hdl import ast
from .logic import Value, truthiness


class EvalError(Exception):
    """Raised when an expression cannot be evaluated (bad mutant, etc.)."""


class EvalScope(Protocol):
    """Name-resolution interface the evaluator needs."""

    def read(self, name: str) -> Value:
        """Current value of a signal, variable, or parameter."""
        ...

    def read_word(self, name: str, index: int) -> Value:
        """Current value of one word of a memory."""
        ...

    def is_memory(self, name: str) -> bool:
        """True when ``name`` is an array (memory)."""
        ...

    def call_function(self, name: str, args: list[Value]) -> Value:
        """Invoke a user-defined function."""
        ...

    def system_function(self, name: str, args: list[Value]) -> Value:
        """Invoke a system function such as ``$time`` or ``$random``."""
        ...


_DEFAULT_WIDTH = 32


def eval_expr(expr: ast.Expr, scope: EvalScope, ctx_width: int | None = None) -> Value:
    """Evaluate ``expr`` in ``scope``.

    Args:
        expr: Expression AST.
        scope: Name resolution scope.
        ctx_width: Context (assignment LHS) width, propagated into
            arithmetic so carries beyond operand widths are preserved.

    Returns:
        The 4-state result value.
    """
    if isinstance(expr, ast.Number):
        width = expr.width if expr.width is not None else _DEFAULT_WIDTH
        return Value(width, expr.aval, expr.bval, expr.signed)
    if isinstance(expr, ast.RealNumber):
        return Value.from_int(int(expr.value), 64)
    if isinstance(expr, ast.StringConst):
        data = expr.text.encode("ascii", errors="replace")
        width = max(8 * len(data), 8)
        return Value(width, int.from_bytes(data, "big") if data else 0)
    if isinstance(expr, ast.Identifier):
        return scope.read(expr.name)
    if isinstance(expr, ast.UnaryOp):
        return _eval_unary(expr, scope, ctx_width)
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, scope, ctx_width)
    if isinstance(expr, ast.Ternary):
        return _eval_ternary(expr, scope, ctx_width)
    if isinstance(expr, ast.Index):
        return _eval_index(expr, scope)
    if isinstance(expr, ast.PartSelect):
        return _eval_partselect(expr, scope)
    if isinstance(expr, ast.Concat):
        return _eval_concat(expr, scope)
    if isinstance(expr, ast.Repeat_):
        count = eval_expr(expr.count, scope)
        if not count.is_fully_defined:
            raise EvalError("replication count is x/z")
        value = eval_expr(expr.value, scope)
        n = count.to_int()
        if n <= 0 or n > 4096:
            raise EvalError(f"bad replication count {n}")
        result = value
        for _ in range(n - 1):
            result = result.concat(value)
        return result
    if isinstance(expr, ast.FunctionCall):
        args = [eval_expr(a, scope) for a in expr.args]
        if expr.name.startswith("$"):
            return scope.system_function(expr.name, args)
        return scope.call_function(expr.name, args)
    raise EvalError(f"cannot evaluate {type(expr).__name__}")


# ----------------------------------------------------------------------
# Operator implementations
# ----------------------------------------------------------------------


def _eval_unary(expr: ast.UnaryOp, scope: EvalScope, ctx_width: int | None) -> Value:
    op = expr.op
    if op in ("+", "-"):
        operand = eval_expr(expr.operand, scope, ctx_width)
        width = max(operand.width, ctx_width or 0)
        operand = operand.resized(width)
        if not operand.is_fully_defined:
            return Value.unknown(width)
        if op == "-":
            return Value.from_int(-operand.aval, width, operand.signed)
        return operand
    operand = eval_expr(expr.operand, scope)
    if op == "!":
        state = truthiness(operand)
        if state == "x":
            return Value(1, 1, 1)
        return Value(1, 0 if state == "true" else 1)
    if op == "~":
        # ~x = x, ~z = x; defined bits invert.
        aval = (~operand.aval) & ((1 << operand.width) - 1)
        aval |= operand.bval  # x/z positions become x (a=1,b=1)
        return Value(operand.width, aval, operand.bval)
    if op in ("&", "|", "^", "~&", "~|", "~^", "^~"):
        return _reduction(op, operand)
    raise EvalError(f"unknown unary operator {op!r}")


def _reduction(op: str, operand: Value) -> Value:
    base = op.lstrip("~") if op != "^~" else "^"
    invert = op.startswith("~") or op == "^~"
    mask = (1 << operand.width) - 1
    ones = operand.aval & ~operand.bval
    zeros = (~operand.aval) & (~operand.bval) & mask
    if base == "&":
        if zeros:
            result = Value(1, 0)
        elif operand.bval:
            result = Value(1, 1, 1)
        else:
            result = Value(1, 1)
    elif base == "|":
        if ones:
            result = Value(1, 1)
        elif operand.bval:
            result = Value(1, 1, 1)
        else:
            result = Value(1, 0)
    else:  # ^
        if operand.bval:
            result = Value(1, 1, 1)
        else:
            result = Value(1, bin(operand.aval).count("1") & 1)
    if invert:
        if result.bval:
            return result
        return Value(1, result.aval ^ 1)
    return result


_ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "**"})
_BITWISE_OPS = frozenset({"&", "|", "^", "^~", "~^"})
_COMPARE_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_SHIFT_OPS = frozenset({"<<", ">>", "<<<", ">>>"})


def _eval_binary(expr: ast.BinaryOp, scope: EvalScope, ctx_width: int | None) -> Value:
    op = expr.op
    if op in ("&&", "||"):
        left = truthiness(eval_expr(expr.left, scope))
        right = truthiness(eval_expr(expr.right, scope))
        if op == "&&":
            if left == "false" or right == "false":
                return Value(1, 0)
            if left == "true" and right == "true":
                return Value(1, 1)
            return Value(1, 1, 1)
        if left == "true" or right == "true":
            return Value(1, 1)
        if left == "false" and right == "false":
            return Value(1, 0)
        return Value(1, 1, 1)

    if op in _SHIFT_OPS:
        left = eval_expr(expr.left, scope, ctx_width)
        width = max(left.width, ctx_width or 0)
        left = left.resized(width)
        amount = eval_expr(expr.right, scope)
        if not amount.is_fully_defined:
            return Value.unknown(width)
        shift = amount.to_int()
        if shift < 0 or shift > 1 << 16:
            return Value.unknown(width)
        if op in ("<<", "<<<"):
            return Value(width, left.aval << shift, left.bval << shift, left.signed)
        if op == ">>" or not left.signed:
            return Value(width, left.aval >> shift, left.bval >> shift, left.signed)
        # Arithmetic right shift with x-safe sign bit handling.
        if not left.is_fully_defined:
            return Value.unknown(width)
        return Value.from_int(left.to_signed_int() >> shift, width, True)

    left = eval_expr(expr.left, scope, ctx_width if op in _ARITH_OPS | _BITWISE_OPS else None)
    right = eval_expr(expr.right, scope, ctx_width if op in _ARITH_OPS | _BITWISE_OPS else None)

    if op in ("===", "!=="):
        same = left.same_state(right)
        return Value(1, int(same if op == "===" else not same))

    if op in _COMPARE_OPS:
        if not (left.is_fully_defined and right.is_fully_defined):
            return Value(1, 1, 1)
        signed = left.signed and right.signed
        lv = left.to_signed_int() if signed else left.aval
        rv = right.to_signed_int() if signed else right.aval
        table = {
            "==": lv == rv,
            "!=": lv != rv,
            "<": lv < rv,
            "<=": lv <= rv,
            ">": lv > rv,
            ">=": lv >= rv,
        }
        return Value(1, int(table[op]))

    width = max(left.width, right.width, ctx_width or 0)
    signed = left.signed and right.signed
    left = left.resized(width)
    right = right.resized(width)

    if op in _BITWISE_OPS:
        return _bitwise(op, left, right, width)

    if op in _ARITH_OPS:
        if not (left.is_fully_defined and right.is_fully_defined):
            return Value.unknown(width)
        lv = left.to_signed_int() if signed else left.aval
        rv = right.to_signed_int() if signed else right.aval
        if op == "+":
            return Value.from_int(lv + rv, width, signed)
        if op == "-":
            return Value.from_int(lv - rv, width, signed)
        if op == "*":
            return Value.from_int(lv * rv, width, signed)
        if op == "/":
            if rv == 0:
                return Value.unknown(width)
            quotient = abs(lv) // abs(rv)
            if (lv < 0) != (rv < 0):
                quotient = -quotient
            return Value.from_int(quotient, width, signed)
        if op == "%":
            if rv == 0:
                return Value.unknown(width)
            remainder = abs(lv) % abs(rv)
            if lv < 0:
                remainder = -remainder
            return Value.from_int(remainder, width, signed)
        if op == "**":
            if rv < 0 or rv > 64:
                return Value.unknown(width)
            return Value.from_int(lv**rv, width, signed)

    raise EvalError(f"unknown binary operator {op!r}")


def _bitwise(op: str, left: Value, right: Value, width: int) -> Value:
    mask = (1 << width) - 1
    l_ones = left.aval & ~left.bval
    l_zeros = (~left.aval) & (~left.bval) & mask
    r_ones = right.aval & ~right.bval
    r_zeros = (~right.aval) & (~right.bval) & mask
    if op == "&":
        ones = l_ones & r_ones
        zeros = l_zeros | r_zeros
    elif op == "|":
        ones = l_ones | r_ones
        zeros = l_zeros & r_zeros
    else:  # ^, ^~, ~^
        defined = (l_ones | l_zeros) & (r_ones | r_zeros)
        xor = (left.aval ^ right.aval) & defined
        if op in ("^~", "~^"):
            xor = (~xor) & defined
        ones = xor
        zeros = defined & ~xor
    unknown = mask & ~(ones | zeros)
    return Value(width, ones | unknown, unknown)


def _eval_ternary(expr: ast.Ternary, scope: EvalScope, ctx_width: int | None) -> Value:
    cond = truthiness(eval_expr(expr.cond, scope))
    if cond == "true":
        return eval_expr(expr.true_expr, scope, ctx_width)
    if cond == "false":
        return eval_expr(expr.false_expr, scope, ctx_width)
    true_val = eval_expr(expr.true_expr, scope, ctx_width)
    false_val = eval_expr(expr.false_expr, scope, ctx_width)
    width = max(true_val.width, false_val.width)
    true_val = true_val.resized(width)
    false_val = false_val.resized(width)
    # Bits that agree and are defined survive; everything else becomes x.
    mask = (1 << width) - 1
    agree = (
        ~(true_val.aval ^ false_val.aval) & ~(true_val.bval | false_val.bval) & mask
    )
    aval = (true_val.aval & agree) | (mask & ~agree)
    bval = mask & ~agree
    return Value(width, aval, bval)


def _eval_index(expr: ast.Index, scope: EvalScope) -> Value:
    index = eval_expr(expr.index, scope)
    if isinstance(expr.target, ast.Identifier) and scope.is_memory(expr.target.name):
        if not index.is_fully_defined:
            raise EvalError(f"memory index for {expr.target.name} is x/z")
        return scope.read_word(expr.target.name, index.to_int())
    target = eval_expr(expr.target, scope)
    if not index.is_fully_defined:
        return Value.unknown(1)
    return target.select_bit(index.to_int())


def _eval_partselect(expr: ast.PartSelect, scope: EvalScope) -> Value:
    target = eval_expr(expr.target, scope)
    msb = eval_expr(expr.msb, scope)
    lsb = eval_expr(expr.lsb, scope)
    if not (msb.is_fully_defined and lsb.is_fully_defined):
        return Value.unknown(max(target.width, 1))
    return target.select_range(msb.to_int(), lsb.to_int())


def _eval_concat(expr: ast.Concat, scope: EvalScope) -> Value:
    if not expr.parts:
        raise EvalError("empty concatenation")
    result: Value | None = None
    for part in expr.parts:
        value = eval_expr(part, scope)
        result = value if result is None else result.concat(value)
    assert result is not None
    return result

