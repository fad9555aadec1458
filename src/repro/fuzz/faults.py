"""Deliberate codegen faults for exercising the fuzz oracles.

The acceptance test for a fuzzer is that it *catches* a planted bug.
Each entry here is a context manager that breaks one codegen rule while
active (monkeypatching :class:`repro.hdl.codegen._Generator`), so

    repro fuzz --seed 0 --count 25 --inject-fault drop_ternary_parens

must end with round-trip violations and auto-shrunk reproducers.  See
``docs/fuzzing.md`` ("mutation smoke") for the workflow.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from ..hdl import ast
from ..hdl.codegen import _Generator


@contextmanager
def _patched_expr(render: Callable) -> Iterator[None]:
    """Swap ``_Generator.expr`` for ``render(original, self, expr)``."""
    original = _Generator.expr

    def patched(self, expr):
        return render(original, self, expr)

    _Generator.expr = patched  # type: ignore[method-assign]
    try:
        yield
    finally:
        _Generator.expr = original  # type: ignore[method-assign]


@contextmanager
def drop_ternary_parens() -> Iterator[None]:
    """Render ``c ? a : b`` without the wrapping parentheses.

    Breaks re-parsing whenever the ternary is an operand of a binary
    operator: ``(x ? y : z + w)`` re-associates the false branch.
    """

    def render(original, self, expr):
        if isinstance(expr, ast.Ternary):
            return (
                f"{self.expr(expr.cond)} ? {self.expr(expr.true_expr)}"
                f" : {self.expr(expr.false_expr)}"
            )
        return original(self, expr)

    with _patched_expr(render):
        yield


@contextmanager
def drop_binary_parens() -> Iterator[None]:
    """Render ``(a op b)`` without the wrapping parentheses.

    Mixed-precedence nests re-associate on re-parse: ``((a + b) * c)``
    becomes ``a + b * c`` which parses as ``a + (b * c)``.
    """

    def render(original, self, expr):
        if isinstance(expr, ast.BinaryOp):
            return f"{self.expr(expr.left)} {expr.op} {self.expr(expr.right)}"
        return original(self, expr)

    with _patched_expr(render):
        yield


@contextmanager
def swap_case_labels() -> Iterator[None]:
    """Render every sized binary literal with its bits reversed.

    A *semantic* (not syntactic) codegen bug: the program still parses
    but the re-parsed AST differs, so the round-trip oracle's structural
    comparison must flag it.
    """

    def render(original, self, expr):
        if (
            isinstance(expr, ast.Number)
            and "'b" in expr.text
            and expr.width is not None
        ):
            prefix, bits = expr.text.split("'b", 1)
            return f"{prefix}'b{bits[::-1]}"
        return original(self, expr)

    with _patched_expr(render):
        yield


@contextmanager
def plant_eval_chaos(spec: str) -> Iterator[None]:
    """Plant supervised-pool chaos faults while the context is active.

    ``spec`` is a chaos plan like ``"hang@3,exit@7:once"`` — each entry
    plants one fault (``hang`` / ``exit`` / ``balloon``) on the Nth task
    the pool dispatches (see
    :func:`repro.core.backend.parse_chaos_spec`).  The plan is installed
    process-wide and snapshotted by each
    :class:`~repro.core.backend.ProcessPoolBackend` at construction, so
    build the backend *inside* the context; the previous plan (normally
    none) is restored on exit.  This is the one way to plant them: the
    test-only hook behind the fault-tolerance acceptance tests and the
    ``check_all.sh`` chaos smoke.
    """
    from ..core import backend as backend_mod

    previous = backend_mod.set_chaos_plan(backend_mod.parse_chaos_spec(spec))
    try:
        yield
    finally:
        backend_mod.set_chaos_plan(previous)


#: name → context-manager factory, the ``--inject-fault`` registry.
#: (Codegen faults only: :func:`plant_eval_chaos` targets the evaluation
#: pool, not the fuzz oracles, and takes a spec argument.)
FAULTS: dict[str, Callable] = {
    "drop_ternary_parens": drop_ternary_parens,
    "drop_binary_parens": drop_binary_parens,
    "swap_case_labels": swap_case_labels,
}
