"""Patch (de)serialization.

The original artifact's output is a *repair patchlist* — "a sequence of
edits to the source code" that can be saved, inspected, and re-applied to
the faulty design to produce the repaired Verilog.  This module provides
that artefact as JSON:

- :func:`patch_to_json` / :func:`patch_from_json` — lossless round-trip of
  a :class:`~repro.core.patch.Patch` (payload subtrees are stored as
  regenerated Verilog fragments and re-parsed on load);
- :func:`outcome_to_json` — a full repair report (patch + metadata) in the
  spirit of the artifact's ``experiments_results.xlsx`` rows.
"""

from __future__ import annotations

import json
from typing import Any

from ..hdl import ast, generate
from ..hdl.lexer import tokenize
from ..hdl.parser import Parser
from .patch import Edit, Patch
from .repair import RepairOutcome


class SerializeError(Exception):
    """Raised when a patch cannot be (de)serialized."""


def _payload_to_text(payload: ast.Node) -> dict[str, str]:
    """Encode a payload subtree as (kind, source fragment).

    Case arms and sensitivity items cannot be rendered on their own, so
    each is encoded inside the smallest parent codegen renders: a one-arm
    ``case`` statement, and a one-item sensitivity list.
    """
    if isinstance(payload, ast.Stmt):
        return {"kind": "stmt", "text": generate(payload).strip()}
    if isinstance(payload, ast.Expr):
        return {"kind": "expr", "text": generate(payload)}
    if isinstance(payload, ast.ModuleItem):
        return {"kind": "item", "text": generate(payload).strip()}
    if isinstance(payload, ast.CaseItem):
        holder = ast.Case("case", ast.Number.from_int(0), [payload])
        return {"kind": "case_item", "text": generate(holder).strip()}
    if isinstance(payload, ast.SensItem):
        return {"kind": "sens_item", "text": generate(ast.SensList([payload]))}
    raise SerializeError(f"cannot serialize payload {type(payload).__name__}")


def _payload_from_text(spec: dict[str, str]) -> ast.Node:
    parser = Parser(tokenize(spec["text"]))
    if spec["kind"] == "stmt":
        return parser.parse_stmt()
    if spec["kind"] == "expr":
        return parser.parse_expr()
    if spec["kind"] == "item":
        items = parser.parse_module_item()
        if len(items) != 1:
            raise SerializeError("item payload must be a single module item")
        return items[0]
    if spec["kind"] == "case_item":
        holder = parser.parse_stmt()
        if not isinstance(holder, ast.Case) or len(holder.items) != 1:
            raise SerializeError("case_item payload must be a one-arm case statement")
        return holder.items[0]
    if spec["kind"] == "sens_item":
        senslist = parser.parse_senslist()
        if len(senslist.items) != 1:
            raise SerializeError("sens_item payload must be a one-item sensitivity list")
        return senslist.items[0]
    raise SerializeError(f"unknown payload kind {spec['kind']!r}")


def edit_to_dict(edit: Edit) -> dict[str, Any]:
    """Encode one edit as a JSON-ready dict."""
    data: dict[str, Any] = {"kind": edit.kind, "target_id": edit.target_id}
    if edit.template is not None:
        data["template"] = edit.template
    if edit.payload is not None:
        data["payload"] = _payload_to_text(edit.payload)
    return data


def edit_from_dict(data: dict[str, Any]) -> Edit:
    """Decode one edit from its dict form."""
    payload = _payload_from_text(data["payload"]) if "payload" in data else None
    return Edit(
        kind=data["kind"],
        target_id=data["target_id"],
        payload=payload,
        template=data.get("template"),
    )


def patch_to_json(patch: Patch, indent: int | None = 2) -> str:
    """Serialise a patch to a JSON repair patchlist."""
    return json.dumps(
        {"format": "cirfix-patchlist-v1", "edits": [edit_to_dict(e) for e in patch.edits]},
        indent=indent,
    )


def patch_from_json(text: str) -> Patch:
    """Load a patch from its JSON patchlist form."""
    data = json.loads(text)
    if data.get("format") != "cirfix-patchlist-v1":
        raise SerializeError(f"unknown patchlist format {data.get('format')!r}")
    return Patch([edit_from_dict(e) for e in data["edits"]])


def outcome_to_json(outcome: RepairOutcome, scenario_id: str = "") -> str:
    """A full repair report (one results-spreadsheet row + the patchlist)."""
    return json.dumps(
        {
            "scenario": scenario_id,
            "plausible": outcome.plausible,
            "fitness": outcome.fitness,
            "generations": outcome.generations,
            "fitness_evals": outcome.fitness_evals,
            "eval_sims": outcome.eval_sims,
            "quarantined": outcome.quarantined,
            "simulations": outcome.simulations,
            "elapsed_seconds": round(outcome.elapsed_seconds, 3),
            "seed": outcome.seed,
            "best_fitness_history": [round(f, 6) for f in outcome.best_fitness_history],
            "patchlist": [edit_to_dict(e) for e in outcome.patch.edits],
            "repaired_source": outcome.repaired_source,
        },
        indent=2,
    )
