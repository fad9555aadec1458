"""Lint driver: run a rule set over a source tree, report, profile.

:func:`lint_tree` is the core entry point (AST in, :class:`LintReport`
out); :func:`lint_text` parses first and is what ``repro lint`` and the
:func:`repro.api.lint` facade call.  A report's :meth:`LintReport.profile`
is its rule code → finding count summary.

Determinism: diagnostics are sorted (module, line, code, message) and
every rule is a pure function of the AST, so the same source text always
yields the same report — byte-for-byte in both renderings.  This is
fuzz-checked (``repro fuzz``'s ``lint`` oracle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from ..hdl import ast, parse
from .diagnostics import Diagnostic, LintRule
from .model import build_module_model
from .rules import RULES


@dataclass(frozen=True)
class LintReport:
    """All findings of one lint run, deterministically ordered."""

    diagnostics: tuple[Diagnostic, ...] = ()
    #: How many modules were analysed (context for "no findings").
    modules: int = 0

    @property
    def ok(self) -> bool:
        """True when there are no findings at all."""
        return not self.diagnostics

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    def profile(self) -> dict[str, int]:
        """Rule code → finding count."""
        counts: dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"{len(self.diagnostics)} finding"
            f"{'s' if len(self.diagnostics) != 1 else ''} "
            f"({self.errors} error{'s' if self.errors != 1 else ''}, "
            f"{self.warnings} warning{'s' if self.warnings != 1 else ''}) "
            f"in {self.modules} module{'s' if self.modules != 1 else ''}"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Machine-readable report (schema of ``repro lint --json``)."""
        return json.dumps(
            {
                "modules": self.modules,
                "findings": len(self.diagnostics),
                "errors": self.errors,
                "warnings": self.warnings,
                "profile": self.profile(),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
        )


def lint_module(
    module: ast.ModuleDef, rules: Sequence[LintRule] | None = None
) -> list[Diagnostic]:
    """Run ``rules`` (default: all) over one module; unsorted findings."""
    model = build_module_model(module)
    findings: list[Diagnostic] = []
    for rule in rules if rules is not None else RULES:
        findings.extend(rule.check(model))
    return findings


def lint_tree(
    tree: ast.Source | ast.ModuleDef,
    rules: Sequence[LintRule] | None = None,
) -> LintReport:
    """Lint a parsed source tree (or a single module)."""
    modules = tree.modules if isinstance(tree, ast.Source) else [tree]
    findings: list[Diagnostic] = []
    for module in modules:
        findings.extend(lint_module(module, rules))
    return LintReport(diagnostics=tuple(sorted(findings)), modules=len(modules))


def lint_text(text: str, rules: Sequence[LintRule] | None = None) -> LintReport:
    """Parse Verilog source and lint it.

    Propagates :class:`~repro.hdl.parser.ParseError` /
    :class:`~repro.hdl.lexer.LexError` — a file that does not parse has
    no lint answer (the CLI maps this to exit code 2).
    """
    return lint_tree(parse(text), rules)
