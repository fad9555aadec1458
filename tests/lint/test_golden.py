"""Golden lint snapshots for every benchsuite project and scenario.

Pins the full diagnostic output (not just the profile) so any rule
change that shifts findings on the real benchmark designs shows up as a
reviewable diff of ``tests/lint/golden/benchsuite_profiles.json``.
Regenerate with::

    PYTHONPATH=src python tests/lint/test_golden.py --regen
"""

import json
import sys
from pathlib import Path

from repro.benchsuite import PROJECT_NAMES, all_scenarios, load_project
from repro.lint import lint_text

GOLDEN_PATH = Path(__file__).parent / "golden" / "benchsuite_profiles.json"

#: Designs expected to lint clean.
CLEAN_PROJECTS = sorted(set(PROJECT_NAMES) - {"sha3"})


def _snapshot():
    golden = {"projects": {}, "scenarios": {}}
    for name in PROJECT_NAMES:
        report = lint_text(load_project(name).design_text)
        golden["projects"][name] = {
            "profile": report.profile(),
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
    for sc in all_scenarios():
        report = lint_text(sc.faulty_design_text)
        golden["scenarios"][sc.scenario_id] = {
            "profile": report.profile(),
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
    return golden


def test_benchsuite_lint_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = _snapshot()
    assert actual["projects"].keys() == expected["projects"].keys()
    assert actual["scenarios"].keys() == expected["scenarios"].keys()
    for kind in ("projects", "scenarios"):
        for name, entry in expected[kind].items():
            assert actual[kind][name] == entry, f"{kind[:-1]} {name} diverged"


def test_golden_projects_mostly_clean():
    expected = json.loads(GOLDEN_PATH.read_text())
    for name in CLEAN_PROJECTS:
        assert expected["projects"][name]["profile"] == {}, name
    # sha3's keccak round uses an intra-cycle blocking temporary inside a
    # clocked block — a recorded (accepted) style warning, not an error.
    assert expected["projects"]["sha3"]["profile"] == {"L002": 1}


def test_every_scenario_parses_and_lints():
    for sc in all_scenarios():
        lint_text(sc.faulty_design_text)  # must not raise


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(
            json.dumps(_snapshot(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
