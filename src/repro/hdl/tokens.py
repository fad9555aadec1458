"""Token definitions for the Verilog lexer.

The lexer produces a flat stream of :class:`Token` objects.  Token kinds are
coarse (keyword, identifier, number, operator, punctuation); the parser
dispatches on :attr:`Token.kind` and :attr:`Token.text`.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """Coarse lexical categories for Verilog tokens."""

    KEYWORD = auto()
    IDENT = auto()
    SYSTEM_IDENT = auto()  # $display, $time, ...
    NUMBER = auto()  # 12, 4'b10x0, 8'hFF, 3.14
    STRING = auto()  # "..." (for $display format strings)
    OPERATOR = auto()  # + - * / == <= && ...
    PUNCT = auto()  # ( ) [ ] { } ; , : . # @
    EOF = auto()


class Token(NamedTuple):
    """A single lexical token (immutable; a named tuple, because the lexer
    builds one per token and a tuple is the cheapest immutable record).

    Attributes:
        kind: Coarse category of the token.
        text: Exact source text (keywords/identifiers/operators) or the
            normalised literal text for numbers and strings.
        line: 1-based source line where the token starts.
        col: 1-based source column where the token starts.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


#: Reserved words recognised by the lexer.  This is the Verilog-2001 subset
#: needed by the benchmark designs plus a few extras for robustness.
KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "integer",
        "real",
        "time",
        "event",
        "parameter",
        "localparam",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "for",
        "while",
        "repeat",
        "forever",
        "wait",
        "posedge",
        "negedge",
        "or",
        "and",
        "not",
        "function",
        "endfunction",
        "task",
        "endtask",
        "signed",
        "unsigned",
        "generate",
        "endgenerate",
        "genvar",
        "disable",
        "fork",
        "join",
        "defparam",
        "supply0",
        "supply1",
        "tri",
    }
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPERATORS = (
    "<<<",
    ">>>",
    "===",
    "!==",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "~&",
    "~|",
    "~^",
    "^~",
    "->",
    "**",
)

#: Single-character operators.
SINGLE_CHAR_OPERATORS = "+-*/%<>!&|^~=?"

#: Punctuation characters (structure, not computation).
PUNCTUATION = "()[]{};,:.#@"
