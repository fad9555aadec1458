"""The variant index and the index-driven operators against their
walking references.

:class:`~repro.core.variant.VariantIndex` must describe a tree as a walk
sees it (order, ids, parent slots, extents); the fix-localization
queries and the GP operators answered from it must equal the walking
ones of ``reference_operators.py``, child for child from the same RNG
state; and in a GP trial and a synth trial, every tree ``Patch.apply``
returns carries each node id once, and every application that started
from a parent's tree equals the full application from the design.
"""

import random

import pytest

from repro.benchsuite import PROJECT_NAMES, load_project
from repro.core import fixloc, operators
from repro.core.faultloc import all_statement_ids
from repro.core.patch import Edit, Patch
from repro.core.variant import NodeView, VariantIndex, path_to
from repro.hdl import ast, parse
from repro.obs import RecordingObserver
from repro.synth import synth_repair

from ..obs.test_engine_telemetry import _run as run_gp_trial
from ..synth.test_engine import FAULTY_STUCK, TEST_CONFIG, make_problem
from . import reference_operators as reference
from .edit_path_checks import EditPathChecks, edits_differ


def recursive_preorder(node):
    """The preorder ``Node.walk`` yielded when it was a recursive generator."""
    yield node
    for child in node.children():
        yield from recursive_preorder(child)


@pytest.fixture(scope="module")
def designs():
    return {name: parse(load_project(name).design_text) for name in PROJECT_NAMES}


def variants(design, rng, count=4):
    """The design and a few GP-grown variants of it."""
    trees = [design]
    patch = Patch.empty()
    for _ in range(count):
        tree = patch.apply(design)
        faults = all_statement_ids(tree)
        patch = operators.mutate(patch, tree, faults, rng) if rng.random() < 0.5 else (
            operators.apply_fix_pattern(patch, tree, faults, rng, extended=True)
        )
        trees.append(patch.apply(design))
    return trees


class TestIndex:
    @pytest.mark.parametrize("name", PROJECT_NAMES)
    def test_walk_order_and_slots(self, designs, name):
        for tree in variants(designs[name], random.Random(name)):
            index = VariantIndex(tree)
            walked = list(recursive_preorder(tree))
            assert list(tree.walk()) == walked
            assert len(index.nodes) == len(walked)
            assert all(a is b for a, b in zip(index.nodes, walked))
            assert index.ids == [node.node_id for node in walked]
            assert index.max_id == max((node.node_id or 0) for node in walked)
            for position, node in enumerate(walked):
                assert walked[index.ends[position] - 1] in list(recursive_preorder(node))
                assert index.ends[position] - position == len(list(recursive_preorder(node)))
                if node.node_id is not None:
                    assert index.positions[node.node_id] == position
                    assert index.path(position) == path_to(tree, node.node_id)
                if position:
                    parent = walked[index.parents[position]]
                    value = getattr(parent, index.fields[position])
                    slot = index.slots[position]
                    assert (value if slot is None else value[slot]) is node

    def test_lhs_positions(self, designs):
        tree = designs["fsm_full"]
        index = VariantIndex(tree)
        expected = {
            index.positions[node.lhs.node_id]
            for node in tree.walk()
            if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign))
        }
        assert index.lhs_positions() == expected

    def test_node_view_is_the_list_without_one(self):
        nodes = [ast.Identifier(str(i)) for i in range(6)]
        positions = [0, 2, 3, 5]
        for skip in (None, 0, 1, 3, 5):
            expected = [nodes[p] for p in positions if p != skip]
            view = NodeView(nodes, positions, skip)
            assert len(view) == len(expected)
            assert list(view) == expected
            assert [view[i] for i in range(-len(view), 0)] == expected
            rng_a, rng_b = random.Random(str(skip)), random.Random(str(skip))
            if expected:
                assert rng_a.choice(view) is rng_b.choice(expected)
        with pytest.raises(IndexError):
            NodeView(nodes, [], None)[0]

    def test_replacement_families_are_disjoint(self):
        kinds = [
            cls for cls in vars(ast).values()
            if isinstance(cls, type) and issubclass(cls, ast.Node)
        ]
        for cls in kinds:
            assert sum(issubclass(cls, family) for family in fixloc._FAMILIES) <= 1, cls


class TestQueriesMatchWalks:
    @pytest.mark.parametrize("name", PROJECT_NAMES)
    def test_fixloc_queries(self, designs, name):
        rng = random.Random(name)
        for tree in variants(designs[name], rng, count=3):
            index = VariantIndex(tree)
            nodes = [n for n in tree.walk() if n.node_id is not None]
            faults = {n.node_id for n in rng.sample(nodes, min(len(nodes), 25))}
            assert fixloc.insertion_sources(index) == reference.insertion_sources(tree)
            assert fixloc.deletable_targets(index, faults) == reference.deletable_targets(tree, faults)
            for target in rng.sample(nodes, min(len(nodes), 30)):
                want = reference.replacement_sources(tree, target)
                assert list(fixloc.replacement_sources(index, target)) == want
                lvalues = [s for s in want if fixloc.is_lvalue_expr(s)]
                assert list(fixloc.lvalue_sources(index, target)) == lvalues
            stranger = ast.Identifier("x")  # a target that is not in the tree
            assert list(fixloc.replacement_sources(index, stranger)) == (
                reference.replacement_sources(tree, stranger)
            )


class TestOperatorsMatchWalks:
    @pytest.mark.parametrize("name", PROJECT_NAMES)
    def test_same_child_from_same_rng_state(self, designs, name):
        rng = random.Random(name)
        for tree in variants(designs[name], rng, count=3):
            parent = Patch([Edit("delete", 10**9)])  # stale: any parent will do
            nodes = [n for n in tree.walk() if n.node_id is not None]
            for size in (0, 1, 5, 40):
                faults = frozenset(n.node_id for n in rng.sample(nodes, min(size, len(nodes))))
                for draw in range(25):
                    for real, walking, extra in (
                        (operators.mutate, reference.mutate, (0.3, 0.3)),
                        (operators.apply_fix_pattern, reference.apply_fix_pattern, (draw % 2 == 0,)),
                    ):
                        ours, theirs = random.Random(draw), random.Random(draw)
                        child = real(parent, tree, faults, ours, *extra)
                        want = walking(parent, tree, faults, theirs, *extra)
                        assert ours.getstate() == theirs.getstate()
                        assert (child is parent) == (want is parent)
                        assert edits_differ(child, want) is None


class TestTrials:
    def test_gp_trial(self):
        with EditPathChecks() as checks:
            run_gp_trial(observers=[RecordingObserver()])
        assert checks.failures == []
        assert checks.counts["mutate"] and checks.counts["apply_fix_pattern"]
        assert checks.counts["incremental"] > 0
        assert checks.counts["exact"] > 0

    def test_synth_trial(self):
        with EditPathChecks() as checks:
            synth_repair(make_problem(FAULTY_STUCK, "tff"), TEST_CONFIG)
        assert checks.failures == []
        assert checks.counts["applications"] > 0
        assert checks.counts["exact"] > 0

    def test_crossover_prefix_is_a_whole_parent(self):
        design = parse(load_project("counter").design_text)
        stmts = [n for n in design.walk() if isinstance(n, ast.NonBlockingAssign)]
        first = Patch([Edit("delete", stmts[0].node_id)])
        second = Patch([Edit("delete", stmts[1].node_id), Edit("delete", stmts[2].node_id)])
        seen = set()
        for seed in range(20):
            child1, child2 = operators.crossover(first, second, random.Random(seed))
            for child, parent in ((child1, first), (child2, second)):
                # The edits are distinct, so a child leads with all of its
                # first parent's edits exactly when the cut kept them all.
                whole = child.edits[: len(parent.edits)] == parent.edits
                assert child.__dict__.get("_prefix") is (parent if whole else None)
                seen.add(whole)
        assert seen == {True, False}
