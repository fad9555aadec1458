"""Recursive-descent parser for the supported Verilog subset.

The grammar covers what the benchmark designs and testbenches need: module
definitions (ANSI and classic port styles), wire/reg/integer/event/parameter
declarations, continuous assigns, always/initial blocks, the full procedural
statement set (blocking/non-blocking assignment with intra-assignment delays,
if/case/for/while/repeat/forever/wait, delay and event controls, named event
triggers, system tasks), module instantiation with parameter overrides, and
function/task definitions.

Entry point: :func:`parse` (source text → :class:`repro.hdl.ast.Source` with
node ids assigned).
"""

from __future__ import annotations

from . import ast
from .lexer import tokenize
from .node_ids import number_nodes
from .preprocess import preprocess
from .tokens import Token, TokenKind


class ParseError(Exception):
    """Raised on a syntax error, with source position information."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (got {token.text!r} at line {token.line}, col {token.col})")
        self.token = token


# Binary operator precedence, higher binds tighter.  ``<=`` appears here as
# less-or-equal; the statement parser resolves the non-blocking-assignment
# ambiguity before expression parsing begins.
_BINARY_PRECEDENCE = {
    "||": 3,
    "&&": 4,
    "|": 5,
    "^": 6,
    "^~": 6,
    "~^": 6,
    "&": 7,
    "==": 8,
    "!=": 8,
    "===": 8,
    "!==": 8,
    "<": 9,
    "<=": 9,
    ">": 9,
    ">=": 9,
    "<<": 10,
    ">>": 10,
    "<<<": 10,
    ">>>": 10,
    "+": 11,
    "-": 11,
    "*": 12,
    "/": 12,
    "%": 12,
    "**": 13,
}

_UNARY_OPS = frozenset({"!", "~", "+", "-", "&", "|", "^", "~&", "~|", "~^", "^~"})

#: Token kinds :meth:`Parser._check` matches by text (never identifiers).
_CHECK_KINDS = (TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCT)

_DECL_KEYWORDS = frozenset(
    {"input", "output", "inout", "wire", "reg", "integer", "real", "event", "genvar", "tri", "supply0", "supply1"}
)


class Parser:
    """Parses a token stream into an AST."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        # ``_next`` never moves past the final EOF token, so the index is
        # always in range.
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _check(self, text: str) -> bool:
        tok = self._tokens[self._pos]
        return tok.text == text and tok.kind in _CHECK_KINDS

    def _accept(self, text: str) -> bool:
        if self._check(text):
            self._next()
            return True
        return False

    def _expect(self, text: str) -> Token:
        if not self._check(text):
            raise ParseError(f"expected {text!r}", self._peek())
        return self._next()

    def _expect_ident(self) -> str:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", tok)
        return self._next().text

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_source(self) -> ast.Source:
        """Parse a whole source file (one or more modules)."""
        modules: list[ast.ModuleDef] = []
        while self._peek().kind is not TokenKind.EOF:
            if self._check("module"):
                modules.append(self.parse_module())
            else:
                raise ParseError("expected 'module'", self._peek())
        return ast.Source(modules)

    def parse_module(self) -> ast.ModuleDef:
        """Parse one ``module ... endmodule`` definition."""
        module_line = self._peek().line
        self._expect("module")
        name = self._expect_ident()
        items: list[ast.ModuleItem] = []
        port_names: list[str] = []
        if self._accept("#"):
            self._expect("(")
            items.extend(self._parse_header_params())
            self._expect(")")
        if self._accept("("):
            port_names, port_items = self._parse_port_list()
            items.extend(port_items)
            self._expect(")")
        self._expect(";")
        while not self._check("endmodule"):
            items.extend(self.parse_module_item())
        self._expect("endmodule")
        module = ast.ModuleDef(name, port_names, items)
        module.line = module_line
        for item in items:
            # Header parameter/port declarations share the header's line.
            if item.line is None:
                item.line = module_line
        return module

    def _parse_header_params(self) -> list[ast.Decl]:
        """Parse ``#(parameter A = 1, parameter [3:0] B = 2)``."""
        decls: list[ast.Decl] = []
        while True:
            self._accept("parameter")
            signed = self._accept("signed")
            msb, lsb = self._parse_optional_range()
            pname = self._expect_ident()
            self._expect("=")
            decls.append(
                ast.Decl("parameter", pname, msb, lsb, init=self.parse_expr(), signed=signed)
            )
            if not self._accept(","):
                return decls

    def _parse_port_list(self) -> tuple[list[str], list[ast.Decl]]:
        """Parse either classic name-only or ANSI declared port lists."""
        names: list[str] = []
        decls: list[ast.Decl] = []
        if self._check(")"):
            return names, decls
        direction: str | None = None
        reg_flag = False
        signed = False
        msb: ast.Expr | None = None
        lsb: ast.Expr | None = None
        while True:
            if self._peek().text in ("input", "output", "inout"):
                direction = self._next().text
                reg_flag = self._accept("reg")
                if not reg_flag:
                    self._accept("wire")
                signed = self._accept("signed")
                msb, lsb = self._parse_optional_range()
            pname = self._expect_ident()
            names.append(pname)
            if direction is not None:
                decls.append(
                    ast.Decl(direction, pname, _clone(msb), _clone(lsb), reg_flag=reg_flag, signed=signed)
                )
            if not self._accept(","):
                return names, decls

    # ------------------------------------------------------------------
    # Module items
    # ------------------------------------------------------------------

    def parse_module_item(self) -> list[ast.ModuleItem]:
        """Parse one module item (may expand to several declarations).

        Each returned item is stamped with the source line of its leading
        token (``Node.line``), the anchor used by lint diagnostics.
        """
        tok = self._peek()
        items = self._parse_module_item()
        for item in items:
            if item.line is None:
                item.line = tok.line
        return items

    def _parse_module_item(self) -> list[ast.ModuleItem]:
        tok = self._peek()
        text = tok.text
        if text in _DECL_KEYWORDS:
            return self._parse_decl()
        if text in ("parameter", "localparam"):
            return self._parse_param_decl(text)
        if text == "assign":
            return self._parse_continuous_assign()
        if text == "always":
            return [self._parse_always()]
        if text == "initial":
            self._next()
            return [ast.Initial(self.parse_stmt())]
        if text == "function":
            return [self._parse_function()]
        if text == "task":
            return [self._parse_task()]
        if tok.kind is TokenKind.IDENT:
            return [self._parse_instance()]
        raise ParseError("unexpected token in module body", tok)

    def _parse_optional_range(self) -> tuple[ast.Expr | None, ast.Expr | None]:
        if not self._accept("["):
            return None, None
        msb = self.parse_expr()
        self._expect(":")
        lsb = self.parse_expr()
        self._expect("]")
        return msb, lsb

    def _parse_decl(self) -> list[ast.Decl]:
        kind = self._next().text
        reg_flag = False
        if kind in ("input", "output", "inout"):
            reg_flag = self._accept("reg")
            if not reg_flag:
                self._accept("wire")
        signed = self._accept("signed")
        msb, lsb = self._parse_optional_range()
        decls: list[ast.Decl] = []
        while True:
            name = self._expect_ident()
            array_msb: ast.Expr | None = None
            array_lsb: ast.Expr | None = None
            if self._accept("["):
                array_msb = self.parse_expr()
                self._expect(":")
                array_lsb = self.parse_expr()
                self._expect("]")
            init: ast.Expr | None = None
            if self._accept("="):
                init = self.parse_expr()
            decls.append(
                ast.Decl(
                    kind,
                    name,
                    _clone(msb),
                    _clone(lsb),
                    init=init,
                    array_msb=array_msb,
                    array_lsb=array_lsb,
                    reg_flag=reg_flag,
                    signed=signed,
                )
            )
            if not self._accept(","):
                self._expect(";")
                return decls

    def _parse_param_decl(self, kind: str) -> list[ast.Decl]:
        self._next()
        signed = self._accept("signed")
        msb, lsb = self._parse_optional_range()
        decls: list[ast.Decl] = []
        while True:
            name = self._expect_ident()
            self._expect("=")
            decls.append(
                ast.Decl(
                    kind, name, _clone(msb), _clone(lsb), init=self.parse_expr(), signed=signed
                )
            )
            if not self._accept(","):
                self._expect(";")
                return decls

    def _parse_continuous_assign(self) -> list[ast.ContinuousAssign]:
        self._expect("assign")
        delay = self._parse_optional_delay()
        assigns: list[ast.ContinuousAssign] = []
        while True:
            lhs = self._parse_lvalue()
            self._expect("=")
            assigns.append(ast.ContinuousAssign(lhs, self.parse_expr(), _clone(delay)))
            if not self._accept(","):
                self._expect(";")
                return assigns

    def _parse_always(self) -> ast.Always:
        self._expect("always")
        senslist: ast.SensList | None = None
        if self._check("@"):
            senslist = self.parse_senslist()
        return ast.Always(senslist, self.parse_stmt())

    def parse_senslist(self) -> ast.SensList:
        """Parse one sensitivity list: ``@*``, ``@(*)`` or ``@(a or b ...)``."""
        self._expect("@")
        if self._accept("*"):
            return ast.SensList([ast.SensItem("all", None)])
        self._expect("(")
        if self._accept("*"):
            self._expect(")")
            return ast.SensList([ast.SensItem("all", None)])
        items: list[ast.SensItem] = []
        while True:
            edge = "level"
            if self._accept("posedge"):
                edge = "posedge"
            elif self._accept("negedge"):
                edge = "negedge"
            items.append(ast.SensItem(edge, self.parse_expr()))
            if not (self._accept("or") or self._accept(",")):
                self._expect(")")
                return ast.SensList(items)

    def _parse_instance(self) -> ast.Instance:
        module_name = self._expect_ident()
        params: list[ast.ParamArg] = []
        if self._accept("#"):
            self._expect("(")
            while True:
                if self._accept("."):
                    pname = self._expect_ident()
                    self._expect("(")
                    params.append(ast.ParamArg(pname, self.parse_expr()))
                    self._expect(")")
                else:
                    params.append(ast.ParamArg(None, self.parse_expr()))
                if not self._accept(","):
                    break
            self._expect(")")
        inst_name = self._expect_ident()
        self._expect("(")
        ports: list[ast.PortArg] = []
        if not self._check(")"):
            while True:
                if self._accept("."):
                    pname = self._expect_ident()
                    self._expect("(")
                    expr = None if self._check(")") else self.parse_expr()
                    self._expect(")")
                    ports.append(ast.PortArg(pname, expr))
                else:
                    ports.append(ast.PortArg(None, self.parse_expr()))
                if not self._accept(","):
                    break
        self._expect(")")
        self._expect(";")
        return ast.Instance(module_name, inst_name, ports, params)

    def _parse_function(self) -> ast.FunctionDef:
        self._expect("function")
        self._accept("automatic")
        self._accept("signed")
        msb, lsb = self._parse_optional_range()
        name = self._expect_ident()
        # Non-ANSI form only: ``function [7:0] f; input [7:0] x; ... endfunction``
        self._expect(";")
        decls: list[ast.Decl] = []
        while self._peek().text in _DECL_KEYWORDS:
            decls.extend(self._parse_decl())
        body = self.parse_stmt()
        self._expect("endfunction")
        return ast.FunctionDef(name, msb, lsb, decls, body)

    def _parse_task(self) -> ast.TaskDef:
        self._expect("task")
        name = self._expect_ident()
        self._expect(";")
        decls: list[ast.Decl] = []
        while self._peek().text in _DECL_KEYWORDS:
            decls.extend(self._parse_decl())
        body = self.parse_stmt()
        self._expect("endtask")
        return ast.TaskDef(name, decls, body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        """Parse one procedural statement (line-stamped, see above)."""
        tok = self._peek()
        stmt = self._parse_stmt()
        if stmt.line is None:
            stmt.line = tok.line
        return stmt

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        text = tok.text
        if text == ";":
            self._next()
            return ast.NullStmt()
        if text == "begin":
            return self._parse_block()
        if text == "if":
            return self._parse_if()
        if text in ("case", "casez", "casex"):
            return self._parse_case()
        if text == "for":
            return self._parse_for()
        if text == "while":
            self._next()
            self._expect("(")
            cond = self.parse_expr()
            self._expect(")")
            return ast.While(cond, self.parse_stmt())
        if text == "repeat":
            self._next()
            self._expect("(")
            count = self.parse_expr()
            self._expect(")")
            return ast.RepeatStmt(count, self.parse_stmt())
        if text == "forever":
            self._next()
            return ast.Forever(self.parse_stmt())
        if text == "wait":
            self._next()
            self._expect("(")
            cond = self.parse_expr()
            self._expect(")")
            body = ast.NullStmt() if self._accept(";") else self.parse_stmt()
            return ast.Wait(cond, body)
        if text == "disable":
            self._next()
            name = self._expect_ident()
            self._expect(";")
            return ast.Disable(name)
        if text == "#":
            self._next()
            delay = self._parse_delay_value()
            body = ast.NullStmt() if self._accept(";") else self.parse_stmt()
            return ast.DelayStmt(delay, body)
        if text == "@":
            senslist = self.parse_senslist()
            body = ast.NullStmt() if self._accept(";") else self.parse_stmt()
            return ast.EventControl(senslist, body)
        if text == "->":
            self._next()
            name = self._expect_ident()
            self._expect(";")
            return ast.EventTrigger(name)
        if tok.kind is TokenKind.SYSTEM_IDENT:
            return self._parse_systask()
        if tok.kind is TokenKind.IDENT or text == "{":
            return self._parse_assign_or_taskcall()
        raise ParseError("expected statement", tok)

    def _parse_block(self) -> ast.Block:
        self._expect("begin")
        name: str | None = None
        if self._accept(":"):
            name = self._expect_ident()
        stmts: list[ast.Stmt] = []
        while not self._check("end"):
            stmts.append(self.parse_stmt())
        self._expect("end")
        return ast.Block(stmts, name)

    def _parse_if(self) -> ast.If:
        self._expect("if")
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        then_stmt = self.parse_stmt()
        else_stmt: ast.Stmt | None = None
        if self._accept("else"):
            else_stmt = self.parse_stmt()
        return ast.If(cond, then_stmt, else_stmt)

    def _parse_case(self) -> ast.Case:
        kind = self._next().text
        self._expect("(")
        expr = self.parse_expr()
        self._expect(")")
        items: list[ast.CaseItem] = []
        while not self._check("endcase"):
            if self._accept("default"):
                self._accept(":")
                items.append(ast.CaseItem([], self.parse_stmt()))
            else:
                exprs = [self.parse_expr()]
                while self._accept(","):
                    exprs.append(self.parse_expr())
                self._expect(":")
                items.append(ast.CaseItem(exprs, self.parse_stmt()))
        self._expect("endcase")
        return ast.Case(kind, expr, items)

    def _parse_for(self) -> ast.For:
        self._expect("for")
        self._expect("(")
        init = self._parse_plain_assign()
        self._expect(";")
        cond = self.parse_expr()
        self._expect(";")
        step = self._parse_plain_assign()
        self._expect(")")
        return ast.For(init, cond, step, self.parse_stmt())

    def _parse_plain_assign(self) -> ast.BlockingAssign:
        lhs = self._parse_lvalue()
        self._expect("=")
        return ast.BlockingAssign(lhs, self.parse_expr())

    def _parse_systask(self) -> ast.SysTaskCall:
        name = self._next().text
        args: list[ast.Expr] = []
        if self._accept("("):
            if not self._check(")"):
                while True:
                    args.append(self.parse_expr())
                    if not self._accept(","):
                        break
            self._expect(")")
        self._expect(";")
        return ast.SysTaskCall(name, args)

    def _parse_assign_or_taskcall(self) -> ast.Stmt:
        lhs = self._parse_lvalue()
        if isinstance(lhs, ast.Identifier) and self._check("("):
            self._next()
            args: list[ast.Expr] = []
            if not self._check(")"):
                while True:
                    args.append(self.parse_expr())
                    if not self._accept(","):
                        break
            self._expect(")")
            self._expect(";")
            return ast.TaskCall(lhs.name, args)
        if isinstance(lhs, ast.Identifier) and self._check(";"):
            # A bare name is a call of a zero-argument task.
            self._next()
            return ast.TaskCall(lhs.name, [])
        if self._accept("<="):
            delay = self._parse_optional_delay()
            rhs = self.parse_expr()
            self._expect(";")
            return ast.NonBlockingAssign(lhs, rhs, delay)
        self._expect("=")
        delay = self._parse_optional_delay()
        rhs = self.parse_expr()
        self._expect(";")
        return ast.BlockingAssign(lhs, rhs, delay)

    def _parse_lvalue(self) -> ast.Expr:
        if self._check("{"):
            return self._parse_primary()
        name = self._expect_ident()
        expr: ast.Expr = ast.Identifier(name)
        return self._parse_postfix(expr)

    def _parse_optional_delay(self) -> ast.Expr | None:
        if self._accept("#"):
            return self._parse_delay_value()
        return None

    def _parse_delay_value(self) -> ast.Expr:
        if self._accept("("):
            expr = self.parse_expr()
            self._expect(")")
            return expr
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            return self._parse_number(self._next())
        if tok.kind is TokenKind.IDENT:
            return ast.Identifier(self._next().text)
        raise ParseError("expected delay value", tok)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """Parse one expression (ternary precedence level)."""
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept("?"):
            true_expr = self.parse_expr()
            self._expect(":")
            false_expr = self.parse_expr()
            return ast.Ternary(cond, true_expr, false_expr)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PRECEDENCE.get(tok.text) if tok.kind is TokenKind.OPERATOR else None
            if prec is None or prec < min_prec:
                return left
            self._next()
            right = self._parse_binary(prec + 1)
            left = ast.BinaryOp(tok.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.OPERATOR and tok.text in _UNARY_OPS:
            self._next()
            return ast.UnaryOp(tok.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            return self._parse_postfix(self._parse_number(self._next()))
        if tok.kind is TokenKind.STRING:
            self._next()
            return ast.StringConst(tok.text)
        if tok.kind is TokenKind.SYSTEM_IDENT:
            self._next()
            args: list[ast.Expr] = []
            if self._accept("("):
                if not self._check(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self._accept(","):
                            break
                self._expect(")")
            return ast.FunctionCall(tok.text, args)
        if tok.kind is TokenKind.IDENT:
            self._next()
            if self._check("("):
                self._next()
                args = []
                if not self._check(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self._accept(","):
                            break
                self._expect(")")
                return ast.FunctionCall(tok.text, args)
            return self._parse_postfix(ast.Identifier(tok.text))
        if self._accept("("):
            expr = self.parse_expr()
            self._expect(")")
            return self._parse_postfix(expr)
        if self._accept("{"):
            first = self.parse_expr()
            if self._check("{"):
                # Replication: {count{value}}
                self._next()
                value = self.parse_expr()
                while self._accept(","):
                    value = ast.Concat(
                        [value, self.parse_expr()]
                        if not isinstance(value, ast.Concat)
                        else value.parts + [self.parse_expr()]
                    )
                self._expect("}")
                self._expect("}")
                return ast.Repeat_(first, value)
            parts = [first]
            while self._accept(","):
                parts.append(self.parse_expr())
            self._expect("}")
            return self._parse_postfix(ast.Concat(parts))
        raise ParseError("expected expression", tok)

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while self._check("["):
            self._next()
            first = self.parse_expr()
            if self._accept(":"):
                second = self.parse_expr()
                self._expect("]")
                expr = ast.PartSelect(expr, first, second)
            else:
                self._expect("]")
                expr = ast.Index(expr, first)
        return expr

    def _parse_number(self, tok: Token) -> ast.Expr:
        text = tok.text
        if "." in text:
            return ast.RealNumber(text)
        try:
            return _parse_number_literal(text)
        except ValueError as exc:
            raise ParseError(str(exc), tok) from exc


_BASE_BITS = {"b": 1, "o": 3, "h": 4}
_HEX_DIGITS = "0123456789abcdef"


def _parse_number_literal(text: str) -> ast.Number:
    """Parse a Verilog integer literal into a :class:`Number` node.

    Handles plain decimals, and sized/unsized based literals with x/z/?
    digits.  Raises ValueError on malformed literals.
    """
    clean = text.replace("_", "")
    if "'" not in clean:
        # Plain unbased decimal literals are signed in Verilog-2001.
        return ast.Number(text, None, int(clean), 0, signed=True)
    size_part, rest = clean.split("'", 1)
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:]
    if not rest:
        raise ValueError(f"malformed number literal {text!r}")
    base = rest[0].lower()
    digits = rest[1:].lower()
    width = int(size_part) if size_part else None
    if base == "d":
        if any(ch in "xz?" for ch in digits):
            # Decimal x/z literal: whole value is x or z.
            bit = digits[0] if digits[0] != "?" else "z"
            w = width or 32
            mask = (1 << w) - 1
            aval = mask if bit == "x" else 0
            return ast.Number(text, width, aval, mask, signed)
        value = int(digits or "0")
        if width is not None:
            value &= (1 << width) - 1
        return ast.Number(text, width, value, 0, signed)
    if base not in _BASE_BITS:
        raise ValueError(f"unknown base in {text!r}")
    bits_per = _BASE_BITS[base]
    aval = 0
    bval = 0
    for ch in digits:
        aval <<= bits_per
        bval <<= bits_per
        group_mask = (1 << bits_per) - 1
        if ch == "x":
            aval |= group_mask
            bval |= group_mask
        elif ch in "z?":
            bval |= group_mask
        else:
            if ch not in _HEX_DIGITS or int(ch, 16) > group_mask:
                raise ValueError(f"invalid digit {ch!r} in {text!r}")
            aval |= int(ch, 16)
    natural_width = bits_per * len(digits)
    if width is None:
        width_out = None
        eff = max(natural_width, 1)
    else:
        width_out = width
        eff = width
        if natural_width < eff and digits:
            # Left-extend x/z literals with the leading digit's state.
            lead = digits[0]
            ext_mask = ((1 << eff) - 1) ^ ((1 << natural_width) - 1)
            if lead == "x":
                aval |= ext_mask
                bval |= ext_mask
            elif lead in "z?":
                bval |= ext_mask
        mask = (1 << eff) - 1
        aval &= mask
        bval &= mask
    return ast.Number(text, width_out, aval, bval, signed)


def _clone(node: ast.Node | None) -> ast.Node | None:
    return node.clone() if node is not None else None


def parse(source: str, assign_ids: bool = True) -> ast.Source:
    """Parse Verilog source text into an AST.

    Args:
        source: Verilog source code (one or more modules).
        assign_ids: When True (default), assign preorder node ids.

    Returns:
        The parsed :class:`~repro.hdl.ast.Source` tree.
    """
    tree = Parser(tokenize(preprocess(source))).parse_source()
    if assign_ids:
        number_nodes(tree)
    return tree
