"""Reference lexer for the differential oracle in ``test_lexer_oracle.py``.

:class:`Lexer` reads one character at a time, the simplest statement of
the token language.  :func:`repro.hdl.lexer.tokenize` must produce the
same ``(kind, text, line, col)`` stream, or raise a
:class:`~repro.hdl.lexer.LexError` with the same message, line and column.
"""

from __future__ import annotations

from repro.hdl.lexer import LexError
from repro.hdl.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_BASE_CHARS = frozenset("bBoOdDhH")
_NUMBER_BODY = frozenset("0123456789abcdefABCDEFxXzZ?_")


class Lexer:
    """Tokenises Verilog source text one character at a time."""

    def __init__(self, source: str):
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokens(self) -> list[Token]:
        """Lex the whole input and return the token list (ending with EOF)."""
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        pos = self._pos + offset
        return self._src[pos] if pos < len(self._src) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._src):
                return
            if self._src[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace, comments, and backtick directives."""
        while self._pos < len(self._src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._src) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                self._advance(2)
            elif ch == "`":
                # Directive survived preprocessing; ignore to end of line.
                while self._pos < len(self._src) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, col = self._line, self._col
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, "", line, col)
        if ch in _IDENT_START:
            return self._lex_ident(line, col)
        if ch in _DIGITS or (ch == "'" and self._peek(1) in _BASE_CHARS | frozenset("sS")):
            return self._lex_number(line, col)
        if ch == "$":
            return self._lex_system_ident(line, col)
        if ch == '"':
            return self._lex_string(line, col)
        if ch == "\\":
            return self._lex_escaped_ident(line, col)
        for op in MULTI_CHAR_OPERATORS:
            if self._src.startswith(op, self._pos):
                self._advance(len(op))
                return Token(TokenKind.OPERATOR, op, line, col)
        if ch in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenKind.OPERATOR, ch, line, col)
        if ch in PUNCTUATION:
            self._advance()
            return Token(TokenKind.PUNCT, ch, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)

    def _lex_ident(self, line: int, col: int) -> Token:
        start = self._pos
        while self._peek() in _IDENT_CONT:
            self._advance()
        text = self._src[start : self._pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, col)

    def _lex_escaped_ident(self, line: int, col: int) -> Token:
        self._advance()  # backslash
        start = self._pos
        while self._peek() and self._peek() not in " \t\r\n":
            self._advance()
        return Token(TokenKind.IDENT, self._src[start : self._pos], line, col)

    def _lex_system_ident(self, line: int, col: int) -> Token:
        start = self._pos
        self._advance()  # $
        while self._peek() in _IDENT_CONT:
            self._advance()
        return Token(TokenKind.SYSTEM_IDENT, self._src[start : self._pos], line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        start = self._pos
        while self._peek() and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            self._advance()
        text = self._src[start : self._pos]
        if not self._peek():
            raise LexError("unterminated string literal", line, col)
        self._advance()  # closing quote
        return Token(TokenKind.STRING, text, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        """Lex a number: plain decimal, real, or based literal.

        A based literal may carry an explicit size prefix (``4'b1010``) or
        not (``'hFF``).  The size prefix, if present, was already consumed
        as part of this token because we look ahead for a quote.
        """
        start = self._pos
        while self._peek() in _DIGITS or self._peek() == "_":
            self._advance()
        # Real number (simple form: digits '.' digits).
        if self._peek() == "." and self._peek(1) in _DIGITS:
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
            return Token(TokenKind.NUMBER, self._src[start : self._pos], line, col)
        # Based literal: optional whitespace between size and base is legal,
        # but our subset requires them adjacent (all benchmark code complies).
        if self._peek() == "'":
            self._advance()
            if self._peek() in "sS":
                self._advance()
            if self._peek() not in _BASE_CHARS:
                raise LexError("expected number base after quote", line, col)
            self._advance()
            while self._peek() in _NUMBER_BODY:
                self._advance()
        return Token(TokenKind.NUMBER, self._src[start : self._pos], line, col)
