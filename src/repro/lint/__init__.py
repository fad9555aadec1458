"""repro.lint — static analysis over the Verilog AST.

A rule engine (:class:`LintRule` protocol, :class:`Diagnostic` findings
with node-id/line anchors and stable ``L0xx`` codes) plus an initial
eight-rule catalog: multiple drivers, blocking/non-blocking mixes,
incomplete sensitivity lists, inferred latches, combinational loops,
undeclared and unused identifiers, and width truncation.

Consumers: ``repro lint file.v`` / :func:`repro.api.lint` — CI-style
static checking of design sources — and the fuzz harness's ``lint``
oracle (see ``docs/lint.md``).

Usage::

    from repro.lint import lint_text

    report = lint_text(Path("design.v").read_text())
    for diagnostic in report.diagnostics:
        print(diagnostic.render())
"""

from __future__ import annotations

from .diagnostics import SEVERITIES, Diagnostic, LintRule
from .engine import LintReport, lint_module, lint_text, lint_tree
from .model import ModuleModel, ProcessInfo, build_module_model, classify_always
from .rules import RULES, RULES_BY_KEY, resolve_rules

__all__ = [
    "Diagnostic",
    "LintRule",
    "LintReport",
    "SEVERITIES",
    "RULES",
    "RULES_BY_KEY",
    "resolve_rules",
    "lint_module",
    "lint_text",
    "lint_tree",
    "ModuleModel",
    "ProcessInfo",
    "build_module_model",
    "classify_always",
]
