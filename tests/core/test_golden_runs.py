"""Golden runs simulate the trees they are given.

Every golden run of the benchmark suite (each project under its main
and its validation bench) and of the scenarios minted by
``MintConfig(seed=0, count=24)`` is the same run, to the last counter,
as the run of the regenerated and reparsed tree it replaced
(``reference_oracle.py``).  Strict codegen prints each golden design and
instrumented bench exactly, which is why that reparse never changed a
tree.
"""

import pytest

from repro.benchsuite import all_projects
from repro.core.oracle import combine_sources, ensure_instrumented
from repro.hdl import generate, parse, structural_diff
from repro.instrument.trace import SimulationTrace
from repro.mint import MintConfig, mint_scenarios
from repro.sim import Simulator

from . import reference_oracle as reference


@pytest.fixture(scope="module")
def golden_pairs():
    """``(name, golden design, instrumented bench)`` of every golden run."""
    texts = []
    for project in all_projects():
        texts.append((project.name, project.design_text, project.testbench_text))
        texts.append((f"{project.name}/validate", project.design_text, project.validate_text))
    for minted in mint_scenarios(MintConfig(seed=0, count=24)).admitted:
        texts.append((minted.scenario_id, minted.golden_text, minted.testbench_text))
    pairs = []
    for name, design_text, bench_text in texts:
        golden = parse(design_text)
        pairs.append((name, golden, ensure_instrumented(parse(bench_text), golden)))
    return pairs


def _run(source):
    """Everything a golden run reports, with ``golden_run``'s bounds."""
    result = Simulator(source, max_steps=5_000_000).run(1_000_000)
    return (
        SimulationTrace.from_records(result.trace).to_csv(),
        result.steps_used,
        result.events_executed,
        result.slots_advanced,
        result.time,
        result.finished,
        tuple(result.output),
        tuple(result.errors),
    )


def test_covers_every_golden_run(golden_pairs):
    # 11 projects under two benches each, and 22 minted scenarios.
    assert len(golden_pairs) == 44


def test_strict_codegen_prints_every_golden_tree(golden_pairs):
    for name, golden, bench in golden_pairs:
        for tree in (golden, bench):
            # Strict codegen raises on a tree it cannot print exactly.
            assert structural_diff(parse(generate(tree, strict=True)), tree) is None, name


def test_golden_runs_match_the_reparsed_reference(golden_pairs):
    for name, golden, bench in golden_pairs:
        expected = _run(reference.combine_sources(golden, bench))
        assert expected[0], name  # a golden run records a trace
        printed = generate(golden), generate(bench)
        assert _run(combine_sources(golden, bench)) == expected, name
        # The run left the trees it was given as they were.
        assert (generate(golden), generate(bench)) == printed, name
