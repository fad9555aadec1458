"""Differential oracle: the regex lexer against the reference lexer.

For every input, :func:`repro.hdl.lexer.tokenize` must produce the same
``(kind, text, line, col)`` tuples as the character-at-a-time
:class:`~tests.hdl.reference_lexer.Lexer`, or raise a
:class:`~repro.hdl.lexer.LexError` with the same message, line and column.
"""

import random
from pathlib import Path

import pytest

import repro.benchsuite
from repro.fuzz.generator import generate_program
from repro.hdl.lexer import LexError, tokenize
from repro.hdl.preprocess import preprocess

from .reference_lexer import Lexer

PROJECTS = Path(repro.benchsuite.__file__).parent / "projects"
CORPUS = Path(__file__).parents[1] / "fuzz" / "corpus"

#: Fragments the random strings are built from: tokens of every class,
#: the pieces of every error (quotes, bases, stray characters), and the
#: trivia openers and closers.
FRAGMENTS = (
    "module", "endmodule", "a", "b_1", "x$y", "s", "h", "4", "12", "3.5", "_",
    "'", "'s", "'S", "'b", "'h", "'d", "8'hF_F", "4'b1x?z", "'sd3", "1.",
    '"', '"str"', '"a\\"b"', "\\", "\\esc+ ", "$", "$display", "`define",
    "/*", "*/", "//", "/", "*", " ", "  ", "\t", "\n", "\r\n",
    "<=", "<<<", ">>>", "===", "!==", "==", "!=", "&&", "||", "~&", "~^",
    "^~", "->", "**", "+", "-", "%", "<", ">", "!", "~", "^", "&", "|",
    "=", "?", "(", ")", "[", "]", "{", "}", ";", ",", ":", ".", "#", "@",
    "\x01", "\x0c", "é", "٣",
)
RANDOM_STRINGS = 6000


def outcome(lex, text):
    """Token tuples, or the LexError's message, line and column."""
    try:
        return [tuple(token) for token in lex(text)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


def reference(text):
    return outcome(lambda t: Lexer(t).tokens(), text)


def assert_same(text):
    expected = reference(text)
    assert outcome(tokenize, text) == expected, repr(text)
    return expected


def random_strings(seed=0):
    rng = random.Random(seed)
    for _ in range(RANDOM_STRINGS):
        yield "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12)))


@pytest.mark.parametrize(
    "path", sorted(PROJECTS.glob("*/*.v")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_benchsuite_files_raw_and_preprocessed(path):
    text = path.read_text()
    assert_same(text)
    assert_same(preprocess(text))


def test_benchsuite_has_33_files():
    assert len(list(PROJECTS.glob("*/*.v"))) == 33


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.v")), ids=lambda p: p.name)
def test_fuzz_corpus(path):
    text = path.read_text()
    assert_same(text)
    assert_same(preprocess(text))


def test_generated_programs():
    for seed in range(100):
        assert_same(generate_program(seed).text)


def test_random_strings_reach_every_path():
    reached = dict.fromkeys(
        (
            "unterminated string literal",
            "missing base after a quote",
            "'s at the end of the input",
            "unexpected character",
            "unterminated block comment",
        ),
        0,
    )
    for text in random_strings():
        result = assert_same(text)
        if result[0] != "LexError":
            hidden = ("*/", '"', "//", "`", "\\")
            if "/*" in text and not any(part in text for part in hidden):
                reached["unterminated block comment"] += 1
            continue
        message = result[1]
        if message.startswith("unterminated string literal"):
            reached["unterminated string literal"] += 1
        elif message.startswith("expected number base after quote"):
            if text.endswith(("'s", "'S")):
                reached["'s at the end of the input"] += 1
            else:
                reached["missing base after a quote"] += 1
        elif message.startswith("unexpected character"):
            reached["unexpected character"] += 1
    assert all(reached.values()), reached


@pytest.mark.parametrize(
    "text",
    ['"oops', "'s", "4'", "4'q1010", "'x", "/* open", "\\", '"a\\', "12.'h3", "a\n  \r\n b"],
)
def test_edge_cases(text):
    assert_same(text)
