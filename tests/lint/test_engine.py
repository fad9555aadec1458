"""Lint driver tests: reports, profiles, rule resolution, determinism."""

import json

import pytest

from repro.hdl import ParseError, parse
from repro.lint import (
    RULES,
    RULES_BY_KEY,
    Diagnostic,
    LintRule,
    lint_text,
    lint_tree,
    resolve_rules,
)

CLEAN = """
module m(input a, output w);
  assign w = a;
endmodule
"""

DIRTY = """
module m(input a, input b, output w, output reg q);
  assign w = a;
  assign w = b;
  always @(*) if (a) q = b;
endmodule
"""


def test_clean_report():
    report = lint_text(CLEAN)
    assert report.ok
    assert report.modules == 1
    assert report.errors == 0 and report.warnings == 0
    assert report.profile() == {}


def test_dirty_report_profile_and_counts():
    report = lint_text(DIRTY)
    assert not report.ok
    assert report.profile() == {"L001": 1, "L004": 1}
    assert report.errors == 1  # multi-driver
    assert report.warnings == 1  # latch


def test_diagnostics_sorted_and_frozen():
    report = lint_text(DIRTY)
    assert list(report.diagnostics) == sorted(report.diagnostics)
    with pytest.raises(Exception):
        report.diagnostics[0].code = "L999"


def test_to_text_summary_line():
    text = lint_text(DIRTY).to_text()
    assert text.endswith("2 findings (1 error, 1 warning) in 1 module\n")
    assert "[L001/multi-driver]" in text


def test_to_json_schema():
    data = json.loads(lint_text(DIRTY).to_json())
    assert data["modules"] == 1
    assert data["findings"] == 2
    assert data["profile"] == {"L001": 1, "L004": 1}
    assert {d["code"] for d in data["diagnostics"]} == {"L001", "L004"}
    for diag in data["diagnostics"]:
        assert diag["line"] is not None
        assert diag["module"] == "m"


def test_reports_are_byte_stable():
    a, b = lint_text(DIRTY), lint_text(DIRTY)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_lint_tree_accepts_module_and_source():
    tree = parse(DIRTY)
    assert lint_tree(tree).profile() == lint_tree(tree.modules[0]).profile()


def test_parse_error_propagates():
    with pytest.raises(ParseError):
        lint_text("module broken(")


def test_every_rule_satisfies_protocol():
    for rule in RULES:
        assert isinstance(rule, LintRule)
        assert rule.code in RULES_BY_KEY and rule.name in RULES_BY_KEY


def test_resolve_rules_specs():
    assert resolve_rules(None) == RULES
    assert resolve_rules("all") == RULES
    assert [r.code for r in resolve_rules("L001,comb-loop")] == ["L001", "L005"]
    # Dedup + canonical order regardless of spec order.
    assert [r.code for r in resolve_rules("comb-loop,L001,L005")] == ["L001", "L005"]
    with pytest.raises(ValueError, match="unknown lint rule 'L999'"):
        resolve_rules("L999")


def test_rule_selection_restricts_findings():
    report = lint_text(DIRTY, resolve_rules("multi-driver"))
    assert report.profile() == {"L001": 1}


def test_diagnostic_render_and_location():
    diag = Diagnostic(
        module="m", line=4, code="L001", rule="multi-driver",
        severity="error", message="boom",
    )
    assert diag.location() == "m:4"
    assert diag.render() == "m:4: error [L001/multi-driver] boom"
    unknown = Diagnostic(
        module="m", line=0, code="L001", rule="multi-driver",
        severity="error", message="boom",
    )
    assert unknown.location() == "m"
