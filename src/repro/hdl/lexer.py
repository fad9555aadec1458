"""Regex lexer for the supported Verilog subset.

The lexer strips ``//`` and ``/* */`` comments, recognises based number
literals (``4'b10x0``, ``8'hFF``, ``'d42``), identifiers (including escaped
identifiers and system identifiers like ``$display``), strings, operators and
punctuation.  Compiler directives (`` `timescale``, `` `define`` etc.) are
handled by :mod:`repro.hdl.preprocess` before the lexer runs; any stray
backtick directives encountered here are skipped to end of line.

One compiled pattern does the work: a possessive run of trivia
(whitespace, comments, directive lines) followed by one alternation with
a named group per token class, scanned with ``finditer``.  The classes
start with disjoint characters, so their order in the alternation only
matters for the operators: the multi-character ones come first, in
:data:`~repro.hdl.tokens.MULTI_CHAR_OPERATORS` order.  An unterminated
block comment runs to the end of the input.  Line and column numbers come
from the newlines before each token's start.
"""

from __future__ import annotations

import re

from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)


class LexError(Exception):
    """Raised when the lexer encounters an unrecognised character."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_TRIVIA = r"(?:[ \t\r\n]+|//[^\n]*|/\*(?:.*?\*/|.*)|`[^\n]*)*+"
_BASED = r"'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]*"
_OPERATOR = "|".join(map(re.escape, MULTI_CHAR_OPERATORS)) + f"|[{re.escape(SINGLE_CHAR_OPERATORS)}]"

_SCAN = re.compile(
    _TRIVIA
    + "(?:"
    + "|".join(
        (
            r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_$]*)",
            f"(?P<PUNCT>[{re.escape(PUNCTUATION)}])",
            # A digit run may go on as a real or a based literal; when a
            # quote follows it, the literal must be based (the possessive
            # run cannot give digits back to make it match).
            rf"(?P<NUMBER>[0-9][0-9_]*+(?:\.[0-9]+|{_BASED}|(?!'))|{_BASED})",
            f"(?P<OPERATOR>{_OPERATOR})",
            r"(?P<SYSTEM_IDENT>\$[A-Za-z0-9_$]*)",
            r'(?P<STRING>"(?:[^"\\]|\\.)*")',
            r"(?P<ESCAPED>\\[^ \t\r\n]*)",
            r"(?P<EOF>\Z)",
            r"(?P<ERROR>)",
        )
    )
    + ")",
    re.DOTALL,
)

#: Groups whose text is the token text unchanged.
_PLAIN_KINDS = {
    name: TokenKind[name] for name in ("PUNCT", "NUMBER", "OPERATOR", "SYSTEM_IDENT")
}


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source`` and return the token list terminated by EOF.

    Raises :class:`LexError` on an unterminated string, a quote with no
    number base after it, or a character no token starts with.
    """
    tokens: list[Token] = []
    append = tokens.append
    end = len(source)
    line, line_start = 1, 0
    newline = source.find("\n")
    if newline < 0:
        newline = end
    for match in _SCAN.finditer(source):
        group = match.lastgroup
        start = match.start(group)
        while start > newline:
            line += 1
            line_start = newline + 1
            newline = source.find("\n", line_start)
            if newline < 0:
                newline = end
        text = match[group]
        col = start - line_start + 1
        if group == "IDENT":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(kind, text, line, col))
        elif group in _PLAIN_KINDS:
            append(Token(_PLAIN_KINDS[group], text, line, col))
        elif group == "STRING":
            append(Token(TokenKind.STRING, text[1:-1], line, col))
        elif group == "ESCAPED":
            append(Token(TokenKind.IDENT, text[1:], line, col))
        elif group == "EOF":
            append(Token(TokenKind.EOF, "", line, col))
            break
        else:
            raise _lex_error(source, start, line, col)
    return tokens


def _lex_error(source: str, pos: int, line: int, col: int) -> LexError:
    """The error for the character at ``pos``, where no token matched."""
    ch = source[pos]
    if ch == '"':
        return LexError("unterminated string literal", line, col)
    if "0" <= ch <= "9" or (ch == "'" and source[pos + 1 : pos + 2] in ("s", "S")):
        return LexError("expected number base after quote", line, col)
    return LexError(f"unexpected character {ch!r}", line, col)
