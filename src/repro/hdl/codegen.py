"""Verilog code generation (AST → source text).

The repair loop regenerates source for every mutated AST before simulation,
mirroring the paper's PyVerilog codegen step.  Output is normalised (one
statement per line, canonical spacing) and round-trips through the parser.
"""

from __future__ import annotations

import re

from . import ast
from .tokens import KEYWORDS

_INDENT = "  "
_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


class CodegenError(Exception):
    """Raised when an AST node cannot be rendered (malformed mutation)."""


class InexactCodegen(CodegenError):
    """Raised by a strict :func:`generate` for a tree whose text parses
    back as a different tree, or does not parse."""


def generate(node: ast.Node, *, strict: bool = False) -> str:
    """Render an AST (any node type) back to Verilog source text.

    Some trees print as text that parses back as a different tree, or
    does not parse:

    - a ``for`` header whose init or step is not a delay-free blocking
      assignment (the header prints every assignment as ``lhs = rhs``);
    - an ``if`` with an ``else`` whose then-branch ends in an ``if``
      without one, directly or through a loop, delay or event-control
      body (the ``else`` binds to that inner ``if`` when re-parsed);
    - an expression where the grammar takes only some: an assignment
      target that is not a name or a concatenation under selects, a
      select of an expression that does not print as a primary, a delay
      that is not a name, a literal or parenthesized, and an empty
      concatenation or sensitivity list;
    - a missing statement, printed as the null statement ``;``.

    With ``strict`` such a tree raises :class:`InexactCodegen`; without
    it, it prints as any other tree.
    """
    return _Generator(strict).render(node)


def _name(name: str) -> str:
    """``name`` as Verilog source: a keyword, or a name that is not a plain
    identifier, is written escaped (backslash, name, space) so that it
    lexes back as the same identifier."""
    if name in KEYWORDS or not _PLAIN_NAME.fullmatch(name):
        return f"\\{name} "
    return name


#: Expressions that parse back as themselves under a bit- or part-select:
#: primaries, and the expressions that print parenthesized.
_SELECTABLE = (
    ast.Identifier, ast.Number, ast.RealNumber, ast.Concat, ast.Index,
    ast.PartSelect, ast.BinaryOp, ast.Ternary,
)
#: Expressions that parse back as themselves after ``#``.
_DELAYS = (ast.Identifier, ast.Number, ast.RealNumber, ast.BinaryOp, ast.Ternary)

#: Statements that print their body last.
_BODY_LAST = (
    ast.For, ast.While, ast.RepeatStmt, ast.Forever, ast.Wait,
    ast.DelayStmt, ast.EventControl,
)


def _ends_in_open_if(stmt: ast.Stmt | None) -> bool:
    """Whether ``stmt`` prints ending in an ``if`` without an ``else``."""
    while True:
        if isinstance(stmt, ast.If):
            if stmt.else_stmt is None:
                return True
            stmt = stmt.else_stmt
        elif isinstance(stmt, _BODY_LAST):
            stmt = stmt.body
        else:
            return False


class _Generator:
    def __init__(self, strict: bool = False):
        self.strict = strict

    def exact_unless(self, inexact: bool, why: str) -> None:
        """Raise :class:`InexactCodegen` for ``why`` when strict and ``inexact``."""
        if self.strict and inexact:
            raise InexactCodegen(why)

    def lvalue(self, expr: ast.Expr) -> str:
        text = self.expr(expr)
        head = expr
        while isinstance(head, (ast.Index, ast.PartSelect)):
            head = head.target
        self.exact_unless(
            not isinstance(head, (ast.Identifier, ast.Concat, ast.Repeat_)),
            "an assignment target is a name or a concatenation under selects",
        )
        return text

    def delay(self, expr: ast.Expr) -> str:
        text = self.expr(expr)
        self.exact_unless(
            not isinstance(expr, _DELAYS),
            "a delay is a name, a literal or parenthesized",
        )
        return f"#{text}"

    def render(self, node: ast.Node) -> str:
        if isinstance(node, ast.Source):
            return "\n\n".join(self.module(m) for m in node.modules) + "\n"
        if isinstance(node, ast.ModuleDef):
            return self.module(node)
        if isinstance(node, ast.ModuleItem):
            return self.item(node, 0)
        if isinstance(node, ast.Stmt):
            return self.stmt(node, 0)
        if isinstance(node, ast.Expr):
            return self.expr(node)
        if isinstance(node, ast.SensList):
            return self.senslist(node)
        if isinstance(node, (ast.SensItem, ast.CaseItem, ast.PortArg, ast.ParamArg)):
            # Fragments render inside their parents; fall back to repr-ish.
            raise CodegenError(f"cannot render fragment {type(node).__name__} standalone")
        raise CodegenError(f"unknown node type {type(node).__name__}")

    # ------------------------------------------------------------------
    # Modules and items
    # ------------------------------------------------------------------

    def module(self, mod: ast.ModuleDef) -> str:
        header = f"module {_name(mod.name)}"
        if mod.port_names:
            header += "(" + ", ".join(map(_name, mod.port_names)) + ")"
        lines = [header + ";"]
        for item in mod.items:
            lines.append(self.item(item, 1))
        lines.append("endmodule")
        return "\n".join(lines)

    def item(self, item: ast.ModuleItem, level: int) -> str:
        pad = _INDENT * level
        if isinstance(item, ast.Decl):
            return pad + self.decl(item)
        if isinstance(item, ast.ContinuousAssign):
            delay = f"{self.delay(item.delay)} " if item.delay is not None else ""
            return f"{pad}assign {delay}{self.lvalue(item.lhs)} = {self.expr(item.rhs)};"
        if isinstance(item, ast.Always):
            sens = f" {self.senslist(item.senslist)}" if item.senslist is not None else ""
            return f"{pad}always{sens}\n{self.stmt(item.body, level + 1)}"
        if isinstance(item, ast.Initial):
            return f"{pad}initial\n{self.stmt(item.body, level + 1)}"
        if isinstance(item, ast.Instance):
            return pad + self.instance(item)
        if isinstance(item, ast.FunctionDef):
            return self.function(item, level)
        if isinstance(item, ast.TaskDef):
            return self.task(item, level)
        raise CodegenError(f"unknown module item {type(item).__name__}")

    def decl(self, decl: ast.Decl) -> str:
        parts = [decl.kind]
        if decl.reg_flag:
            parts.append("reg")
        if decl.signed:
            parts.append("signed")
        if decl.msb is not None:
            parts.append(f"[{self.expr(decl.msb)}:{self.expr(decl.lsb)}]")
        name = _name(decl.name)
        if decl.array_msb is not None:
            name += f" [{self.expr(decl.array_msb)}:{self.expr(decl.array_lsb)}]"
        parts.append(name)
        if decl.init is not None:
            parts.append(f"= {self.expr(decl.init)}")
        return " ".join(parts) + ";"

    def instance(self, inst: ast.Instance) -> str:
        text = _name(inst.module_name)
        if inst.params:
            text += " #(" + ", ".join(self.port_arg(p) for p in inst.params) + ")"
        text += f" {_name(inst.name)}(" + ", ".join(self.port_arg(p) for p in inst.ports) + ");"
        return text

    def port_arg(self, arg: ast.PortArg | ast.ParamArg) -> str:
        expr = self.expr(arg.expr) if arg.expr is not None else ""
        if arg.name is not None:
            return f".{_name(arg.name)}({expr})"
        return expr

    def function(self, fn: ast.FunctionDef, level: int) -> str:
        pad = _INDENT * level
        rng = f" [{self.expr(fn.msb)}:{self.expr(fn.lsb)}]" if fn.msb is not None else ""
        lines = [f"{pad}function{rng} {_name(fn.name)};"]
        for decl in fn.decls:
            lines.append(_INDENT * (level + 1) + self.decl(decl))
        lines.append(self.stmt(fn.body, level + 1))
        lines.append(f"{pad}endfunction")
        return "\n".join(lines)

    def task(self, tk: ast.TaskDef, level: int) -> str:
        pad = _INDENT * level
        lines = [f"{pad}task {_name(tk.name)};"]
        for decl in tk.decls:
            lines.append(_INDENT * (level + 1) + self.decl(decl))
        lines.append(self.stmt(tk.body, level + 1))
        lines.append(f"{pad}endtask")
        return "\n".join(lines)

    def senslist(self, sens: ast.SensList) -> str:
        self.exact_unless(not sens.items, "a sensitivity list is not empty")
        if len(sens.items) == 1 and sens.items[0].edge == "all":
            return "@(*)"
        rendered = []
        for item in sens.items:
            if item.edge in ("posedge", "negedge"):
                rendered.append(f"{item.edge} {self.expr(item.signal)}")
            else:
                rendered.append(self.expr(item.signal))
        return "@(" + " or ".join(rendered) + ")"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def stmt(self, stmt: ast.Stmt | None, level: int) -> str:
        pad = _INDENT * level
        if stmt is None or isinstance(stmt, ast.NullStmt):
            self.exact_unless(stmt is None, "a missing statement prints as ;")
            return pad + ";"
        if isinstance(stmt, ast.Block):
            name = f" : {_name(stmt.name)}" if stmt.name else ""
            lines = [f"{pad}begin{name}"]
            for inner in stmt.stmts:
                lines.append(self.stmt(inner, level + 1))
            lines.append(f"{pad}end")
            return "\n".join(lines)
        if isinstance(stmt, ast.BlockingAssign):
            delay = f"{self.delay(stmt.delay)} " if stmt.delay is not None else ""
            return f"{pad}{self.lvalue(stmt.lhs)} = {delay}{self.expr(stmt.rhs)};"
        if isinstance(stmt, ast.NonBlockingAssign):
            delay = f"{self.delay(stmt.delay)} " if stmt.delay is not None else ""
            return f"{pad}{self.lvalue(stmt.lhs)} <= {delay}{self.expr(stmt.rhs)};"
        if isinstance(stmt, ast.If):
            self.exact_unless(
                stmt.else_stmt is not None and _ends_in_open_if(stmt.then_stmt),
                "this else would bind to an inner if",
            )
            lines = [f"{pad}if ({self.expr(stmt.cond)})"]
            lines.append(self.stmt(stmt.then_stmt, level + 1))
            if stmt.else_stmt is not None:
                lines.append(f"{pad}else")
                lines.append(self.stmt(stmt.else_stmt, level + 1))
            return "\n".join(lines)
        if isinstance(stmt, ast.Case):
            lines = [f"{pad}{stmt.kind} ({self.expr(stmt.expr)})"]
            for item in stmt.items:
                label = (
                    ", ".join(self.expr(e) for e in item.exprs) if item.exprs else "default"
                )
                lines.append(f"{pad}{_INDENT}{label} :")
                lines.append(self.stmt(item.stmt, level + 2))
            lines.append(f"{pad}endcase")
            return "\n".join(lines)
        if isinstance(stmt, ast.For):
            init = self._inline_assign(stmt.init)
            step = self._inline_assign(stmt.step)
            return (
                f"{pad}for ({init}; {self.expr(stmt.cond)}; {step})\n"
                + self.stmt(stmt.body, level + 1)
            )
        if isinstance(stmt, ast.While):
            return f"{pad}while ({self.expr(stmt.cond)})\n" + self.stmt(stmt.body, level + 1)
        if isinstance(stmt, ast.RepeatStmt):
            return f"{pad}repeat ({self.expr(stmt.count)})\n" + self.stmt(stmt.body, level + 1)
        if isinstance(stmt, ast.Forever):
            return f"{pad}forever\n" + self.stmt(stmt.body, level + 1)
        if isinstance(stmt, ast.Wait):
            return f"{pad}wait ({self.expr(stmt.cond)})\n" + self.stmt(stmt.body, level + 1)
        if isinstance(stmt, ast.DelayStmt):
            if isinstance(stmt.body, ast.NullStmt):
                return f"{pad}{self.delay(stmt.delay)};"
            return f"{pad}{self.delay(stmt.delay)}\n" + self.stmt(stmt.body, level + 1)
        if isinstance(stmt, ast.EventControl):
            if isinstance(stmt.body, ast.NullStmt):
                return f"{pad}{self.senslist(stmt.senslist)};"
            return f"{pad}{self.senslist(stmt.senslist)}\n" + self.stmt(stmt.body, level + 1)
        if isinstance(stmt, ast.EventTrigger):
            return f"{pad}-> {_name(stmt.name)};"
        if isinstance(stmt, ast.SysTaskCall):
            args = ", ".join(self.expr(a) for a in stmt.args)
            suffix = f"({args})" if stmt.args else ""
            return f"{pad}{stmt.name}{suffix};"
        if isinstance(stmt, ast.TaskCall):
            args = ", ".join(self.expr(a) for a in stmt.args)
            suffix = f"({args})" if stmt.args else ""
            return f"{pad}{_name(stmt.name)}{suffix};"
        if isinstance(stmt, ast.Disable):
            return f"{pad}disable {_name(stmt.name)};"
        raise CodegenError(f"unknown statement {type(stmt).__name__}")

    def _inline_assign(self, stmt: ast.BlockingAssign) -> str:
        text = f"{self.lvalue(stmt.lhs)} = {self.expr(stmt.rhs)}"
        self.exact_unless(
            type(stmt) is not ast.BlockingAssign or stmt.delay is not None,
            "a for header prints a delay-free blocking assignment only",
        )
        return text

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expr(self, expr: ast.Expr | None) -> str:
        if expr is None:
            raise CodegenError("missing expression (deleted by mutation?)")
        if isinstance(expr, ast.Identifier):
            return _name(expr.name)
        if isinstance(expr, (ast.Number, ast.RealNumber)):
            return expr.text
        if isinstance(expr, ast.StringConst):
            return f'"{expr.text}"'
        if isinstance(expr, ast.UnaryOp):
            return f"{expr.op}({self.expr(expr.operand)})"
        if isinstance(expr, ast.BinaryOp):
            return f"({self.expr(expr.left)} {expr.op} {self.expr(expr.right)})"
        if isinstance(expr, ast.Ternary):
            return (
                f"(({self.expr(expr.cond)}) ? {self.expr(expr.true_expr)}"
                f" : {self.expr(expr.false_expr)})"
            )
        if isinstance(expr, (ast.Index, ast.PartSelect)):
            self.exact_unless(
                not isinstance(expr.target, _SELECTABLE),
                "a select applies to a primary",
            )
        if isinstance(expr, ast.Index):
            return f"{self.expr(expr.target)}[{self.expr(expr.index)}]"
        if isinstance(expr, ast.PartSelect):
            return f"{self.expr(expr.target)}[{self.expr(expr.msb)}:{self.expr(expr.lsb)}]"
        if isinstance(expr, ast.Concat):
            self.exact_unless(not expr.parts, "a concatenation is not empty")
            return "{" + ", ".join(self.expr(p) for p in expr.parts) + "}"
        if isinstance(expr, ast.Repeat_):
            return "{" + self.expr(expr.count) + "{" + self.expr(expr.value) + "}}"
        if isinstance(expr, ast.FunctionCall):
            # A ``$`` name is a system function, written as it is.
            name = expr.name if expr.name.startswith("$") else _name(expr.name)
            return f"{name}(" + ", ".join(self.expr(a) for a in expr.args) + ")"
        raise CodegenError(f"unknown expression {type(expr).__name__}")
