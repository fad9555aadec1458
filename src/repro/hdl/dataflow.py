"""Name-level dataflow helpers over the AST.

These queries — which identifiers an assignment writes and which names
an expression reads — are the shared substrate of two analyses: the fixed-point fault localization in
:mod:`repro.core.faultloc` (paper §3.1, Algorithm 2) and the static lint
rules in :mod:`repro.lint`.  They live here so the lint subsystem can
depend on the frontend alone, without importing the repair engine.

All helpers are purely structural: no elaboration, no symbol table.  A
hierarchical or generated name that the subset cannot express never
reaches them (the parser would have rejected it).
"""

from __future__ import annotations

from . import ast


def lhs_names(lhs: ast.Expr) -> set[str]:
    """Identifier names *written* by an assignment target.

    Looks through bit-/part-selects and concatenations: ``{a, b[3:0]}``
    writes ``a`` and ``b``.  Index and select subscripts are reads, not
    writes — see :func:`lhs_read_names`.
    """
    names: set[str] = set()
    stack: list[ast.Expr] = [lhs]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.Identifier):
            names.add(expr.name)
        elif isinstance(expr, (ast.Index, ast.PartSelect)):
            stack.append(expr.target)
        elif isinstance(expr, ast.Concat):
            stack.extend(expr.parts)
    return names


def lhs_read_names(lhs: ast.Expr) -> set[str]:
    """Identifier names *read* by an assignment target's subscripts.

    ``mem[addr] <= x`` writes ``mem`` but reads ``addr``; the select
    bounds of a part-select are reads too.
    """
    reads: set[str] = set()
    stack: list[ast.Expr] = [lhs]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.Index):
            stack.append(expr.target)
            reads |= expr_names(expr.index)
        elif isinstance(expr, ast.PartSelect):
            stack.append(expr.target)
            reads |= expr_names(expr.msb)
            reads |= expr_names(expr.lsb)
        elif isinstance(expr, ast.Concat):
            stack.extend(expr.parts)
    return reads


def expr_names(expr: ast.Expr | None) -> set[str]:
    """Every identifier name appearing anywhere in an expression."""
    if expr is None:
        return set()
    return {n.name for n in expr.walk() if isinstance(n, ast.Identifier)}
