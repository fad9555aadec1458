"""Diagnostic records and the rule protocol of the lint subsystem.

A :class:`Diagnostic` is one finding: a stable rule code (``L0xx``), a
human-readable rule slug, a severity, the module it was found in, a
message, and — when the parser recorded them — the ``node_id``/line
anchors of the offending construct.  Diagnostics are frozen and ordered,
so a report sorts deterministically and renders byte-stably.

A :class:`LintRule` inspects one module's :class:`~repro.lint.model.ModuleModel`
and yields diagnostics.  Rules must be pure functions of the model: no
randomness, no wall-clock, no mutation — so the same source always
yields the same report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .model import ModuleModel

#: Valid severities, most severe first.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding, ordered for stable output."""

    #: Module the finding belongs to (sorts first: reports group by module).
    module: str
    #: 1-based source line anchor (0 when the construct has no line info;
    #: kept as an int so ordering stays total).
    line: int
    #: Stable rule code, e.g. ``"L001"``.
    code: str
    #: Human-readable rule slug, e.g. ``"multi-driver"``.
    rule: str
    #: ``"error"``, ``"warning"``, or ``"info"``.
    severity: str
    #: One-line description of the finding.
    message: str
    #: Preorder node id of the anchored AST node (None for module-level
    #: findings or synthesised nodes).
    node_id: int | None = None

    def location(self) -> str:
        """``module:line`` (line omitted when unknown)."""
        return f"{self.module}:{self.line}" if self.line else self.module

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (schema of ``repro lint --json``)."""
        return {
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity,
            "module": self.module,
            "line": self.line or None,
            "node_id": self.node_id,
            "message": self.message,
        }

    def render(self) -> str:
        """One human-readable report line."""
        return f"{self.location()}: {self.severity} [{self.code}/{self.rule}] {self.message}"


@runtime_checkable
class LintRule(Protocol):
    """One static-analysis rule over a module model.

    Implementations are stateless: ``check`` may be called on any number
    of models in any order and must yield the same diagnostics for the
    same model every time.
    """

    #: Stable code (``"L001"`` …) — never reused, never renumbered.
    code: str
    #: Human-readable slug (``"multi-driver"`` …), also stable.
    name: str
    #: Default severity of this rule's findings.
    severity: str

    def check(self, model: "ModuleModel") -> Iterator[Diagnostic]:
        """Yield every finding of this rule in ``model``'s module."""
        ...
