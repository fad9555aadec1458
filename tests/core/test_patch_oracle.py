"""Oracles for the path-copying ``Patch.apply`` and the one-application memo.

``Patch.apply`` copies only the path from the root to each edited node's
parent and shares every other subtree with the design.  Its result must
equal, ids included, what the clone-then-edit apply it replaced (kept
only as the reference, with the in-place templates, in
``reference_apply.py``) builds, and the design it was applied to must
come out unchanged.

The repair harness applies each ``Patch`` object once and reuses the tree
for scoring, the operators and localization; a spy on ``Patch.apply``
checks that during a GP trial and a synth trial, and that the trials'
outcomes and pinned event-type sequences stay as they were.  The serial
backend scores those trees, so the GP trial parses no candidate.
"""

import random

import pytest

from repro.benchsuite import PROJECT_NAMES, load_project
from repro.core import operators
from repro.core.faultloc import all_statement_ids
from repro.core.patch import Edit, Patch
from repro.core.templates import ALL_TEMPLATES
from repro.core.templates_ext import EXTENDED_TEMPLATES
from repro.hdl import ast, generate, max_node_id, parse, structural_diff
from repro.obs import RecordingObserver
from repro.synth import synth_repair

from ..obs.test_engine_telemetry import GOLDEN as GP_GOLDEN
from ..obs.test_engine_telemetry import _run as run_gp_trial
from ..synth.test_engine import FAULTY_STUCK, TEST_CONFIG, make_problem
from ..synth.test_engine import GOLDEN as SYNTH_GOLDEN
from .reference_apply import reference_apply
from .test_engine_roundtrip import ParseSpy

TEMPLATES = ALL_TEMPLATES + EXTENDED_TEMPLATES


def fingerprint(tree):
    """Generated text and every node id: what a mutation would change."""
    try:
        text = generate(tree)
    except Exception as exc:  # a patched tree may not render
        text = repr(exc)
    return text, [(type(node).__name__, node.node_id) for node in tree.walk()]


def check(patch, base):
    """``patch.apply(base)`` equals the reference and leaves base intact."""
    before = fingerprint(base)
    payloads = [fingerprint(e.payload) for e in patch.edits if e.payload is not None]
    applied = patch.apply(base)
    assert fingerprint(base) == before, patch.describe()
    expected = reference_apply(patch, base)
    assert structural_diff(applied, expected, compare_ids=True) is None, patch.describe()
    assert fingerprint(applied) == fingerprint(expected)
    assert [fingerprint(e.payload) for e in patch.edits if e.payload is not None] == payloads
    return applied


@pytest.fixture(scope="module")
def designs():
    return {name: parse(load_project(name).design_text) for name in PROJECT_NAMES}


def sample(nodes, count, rng):
    return nodes if len(nodes) <= count else rng.sample(nodes, count)


class TestSingleEdits:
    @pytest.mark.parametrize("name", PROJECT_NAMES)
    def test_every_edit_kind(self, designs, name):
        base = designs[name]
        rng = random.Random(name)
        nodes = [n for n in base.walk() if n.node_id is not None]
        statements = [n for n in nodes if isinstance(n, ast.Stmt)]
        donors = [n for n in nodes if isinstance(n, (ast.Stmt, ast.Expr))]
        for target in sample(nodes, 60, rng):
            check(Patch([Edit("delete", target.node_id)]), base)
            donor = rng.choice(donors).clone()
            check(Patch([Edit("replace", target.node_id, donor)]), base)
            check(Patch([Edit("insert_after", target.node_id, donor)]), base)
        for target in sample(statements, 30, rng):
            check(Patch([Edit("insert_after", target.node_id, rng.choice(statements).clone())]), base)

    @pytest.mark.parametrize("name", PROJECT_NAMES)
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_every_template(self, designs, name, template):
        """Every core and extended template, on targets where it applies
        and on a few where it does not."""
        base = designs[name]
        rng = random.Random(f"{name}/{template}")
        nodes = [n for n in base.walk() if n.node_id is not None]
        for target in sample(nodes, 40, rng):
            check(Patch([Edit("template", target.node_id, template=template)]), base)

    def test_stale_and_empty_edits(self, designs):
        base = designs["counter"]
        target = next(n for n in base.walk() if isinstance(n, ast.Stmt))
        stale = max_node_id(base) + 5
        for patch in (
            Patch.empty(),
            Patch([Edit("delete", stale)]),
            Patch([Edit("replace", stale, ast.Identifier("x"))]),
            Patch([Edit("template", stale, template="negate_conditional")]),
            Patch([Edit("replace", target.node_id, None)]),
            Patch([Edit("insert_after", target.node_id, None)]),
            Patch([Edit("template", target.node_id, template=None)]),
            Patch([Edit("template", target.node_id, template="no_such_template")]),
        ):
            check(patch, base)

    def test_root_target(self, designs):
        base = designs["flip_flop"]
        root = base.node_id
        payload = ast.Identifier("x")
        for edit in (
            Edit("delete", root),
            Edit("replace", root, payload),
            Edit("insert_after", root, payload),
            *(Edit("template", root, template=t) for t in TEMPLATES),
        ):
            check(Patch([edit]), base)

    def test_unknown_edit_kind_raises(self, designs):
        base = designs["counter"]
        target = next(n for n in base.walk() if isinstance(n, ast.Stmt))
        with pytest.raises(ValueError, match="unknown edit kind"):
            Patch([Edit("rotate", target.node_id)]).apply(base)
        # A stale edit is skipped before its kind is looked at.
        check(Patch([Edit("rotate", max_node_id(base) + 5)]), base)


class TestMultiEdits:
    def test_later_edits_target_inserted_and_replaced_nodes(self, designs):
        base = designs["flip_flop"]
        base_max = max_node_id(base)
        cond_if = next(n for n in base.walk() if isinstance(n, ast.If))
        assign = next(n for n in base.walk() if isinstance(n, ast.NonBlockingAssign))
        # Fresh ids of an edit at position p start at base_max + (p + 1) * 10_000.
        fresh = [base_max + (p + 1) * 10_000 for p in range(4)]
        cases = [
            # insert, then edit the inserted statement and its lhs
            [Edit("insert_after", assign.node_id, assign.clone()),
             Edit("template", fresh[0], template="nonblocking_to_blocking"),
             Edit("replace", fresh[0] + 1, ast.Identifier("d"))],
            # replace, then delete the replacement
            [Edit("replace", assign.node_id, assign.clone()),
             Edit("delete", fresh[0])],
            # a template wraps the condition; edit the new node and the old one under it
            [Edit("template", cond_if.node_id, template="negate_conditional"),
             Edit("template", fresh[0], template="increment_by_one"),
             Edit("replace", cond_if.cond.node_id, ast.Identifier("t"))],
            # the same node edited twice, then its enclosing statement deleted
            [Edit("template", cond_if.node_id, template="swap_if_branches"),
             Edit("template", cond_if.node_id, template="negate_conditional"),
             Edit("delete", cond_if.node_id)],
            # an edit whose target an earlier edit deleted is stale
            [Edit("delete", cond_if.node_id),
             Edit("template", cond_if.cond.node_id, template="negate_conditional")],
        ]
        for edits in cases:
            check(Patch(edits), base)

    @pytest.mark.parametrize("name", PROJECT_NAMES)
    def test_operator_chains(self, designs, name):
        """Patches grown the way the GP grows them: each edit chosen on the
        variant tree of the patch before it, so later edits hit nodes
        earlier edits inserted or replaced; plus crossovers of those."""
        base = designs[name]
        rng = random.Random(name)
        grown = []
        for _ in range(6):
            patch = Patch.empty()
            for _ in range(5):
                variant = check(patch, base)
                faults = {n.node_id for n in variant.walk() if n.node_id is not None}
                if rng.random() < 0.5:
                    patch = operators.apply_fix_pattern(patch, variant, faults, rng, extended=True)
                else:
                    patch = operators.mutate(patch, variant, all_statement_ids(variant) | faults, rng)
            check(patch, base)
            grown.append(patch)
        for first, second in zip(grown, grown[1:]):
            for child in operators.crossover(first, second, rng):
                check(child, base)


class ApplySpy:
    """Counts ``Patch.apply`` calls per patch object (kept alive so the
    counts cannot alias recycled ids)."""

    def __init__(self, monkeypatch):
        self.calls: dict[int, int] = {}
        self.patches: list[Patch] = []
        original = Patch.apply

        def apply(patch, *args, **kwargs):
            if id(patch) not in self.calls:
                self.patches.append(patch)
            self.calls[id(patch)] = self.calls.get(id(patch), 0) + 1
            return original(patch, *args, **kwargs)

        monkeypatch.setattr(Patch, "apply", apply)


class TestOneApplicationPerPatch:
    def test_gp_trial(self, monkeypatch):
        spy = ApplySpy(monkeypatch)
        # The serial backend scores the applied trees: no candidate parse.
        parses = ParseSpy(monkeypatch)
        recorder = RecordingObserver()
        outcome = run_gp_trial(observers=[recorder])
        assert spy.calls and max(spy.calls.values()) == 1
        assert parses.calls == 0
        # The trial's outcome, recorded before the memo existed.
        assert (
            outcome.plausible, outcome.fitness, outcome.generations,
            outcome.fitness_evals, outcome.eval_sims, outcome.patch.describe(),
        ) == (
            False, 0.9736842105263158, 2, 73, 32,
            "template[sens_level]@15; template[decrement_by_one]@43; delete@68",
        )
        assert "\n".join(recorder.types()) + "\n" == GP_GOLDEN.read_text()

    def test_synth_trial(self, monkeypatch):
        spy = ApplySpy(monkeypatch)
        recorder = RecordingObserver()
        outcome = synth_repair(
            make_problem(FAULTY_STUCK, "tff"), TEST_CONFIG, observers=[recorder]
        )
        assert outcome.plausible
        assert spy.calls and max(spy.calls.values()) == 1
        assert "\n".join(recorder.types()) + "\n" == SYNTH_GOLDEN.read_text()
