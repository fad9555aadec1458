"""GP repair operators: mutation (replace / insert / delete) and
single-point crossover (paper §3.4), plus template application (§3.3).

All operators act on :class:`~repro.core.patch.Patch` values against the
current *variant tree* (the base design with the parent's patch applied),
so the fault/fix spaces reflect every edit the parent already carries.
"""

from __future__ import annotations

import random

from ..hdl import ast
from . import fixloc
from .patch import Edit, Patch
from .templates import applicable_templates


def mutate(
    parent: Patch,
    variant_tree: ast.Source,
    fault_ids: set[int],
    rng: random.Random,
    delete_threshold: float = 0.3,
    insert_threshold: float = 0.3,
) -> Patch:
    """Apply one mutation (replace/insert/delete) to ``parent``.

    The sub-operator is chosen by the user thresholds (paper §4.2 defaults:
    delete 0.3, insert 0.3, replace 0.4).  When the chosen sub-operator has
    no applicable site the parent is returned unchanged (a neutral child).
    """
    roll = rng.random()
    if roll < delete_threshold:
        return _mutate_delete(parent, variant_tree, fault_ids, rng)
    if roll < delete_threshold + insert_threshold:
        return _mutate_insert(parent, variant_tree, fault_ids, rng)
    return _mutate_replace(parent, variant_tree, fault_ids, rng)


def _fault_nodes(variant_tree: ast.Source, fault_ids: set[int]) -> list[ast.Node]:
    return [
        node
        for node in variant_tree.walk()
        if node.node_id is not None and node.node_id in fault_ids
    ]


def _mutate_delete(
    parent: Patch, variant_tree: ast.Source, fault_ids: set[int], rng: random.Random
) -> Patch:
    targets = fixloc.deletable_targets(variant_tree, fault_ids)
    if not targets:
        return parent
    target = rng.choice(targets)
    assert target.node_id is not None
    return parent.extended(Edit("delete", target.node_id))


def _mutate_insert(
    parent: Patch, variant_tree: ast.Source, fault_ids: set[int], rng: random.Random
) -> Patch:
    sources = fixloc.insertion_sources(variant_tree)
    all_anchors = fixloc.insertion_anchors(variant_tree)
    anchors = [node for node in all_anchors if node.node_id in fault_ids] or all_anchors
    if not sources or not anchors:
        return parent
    source = rng.choice(sources)
    anchor = rng.choice(anchors)
    assert anchor.node_id is not None
    return parent.extended(Edit("insert_after", anchor.node_id, source.clone()))


def _mutate_replace(
    parent: Patch, variant_tree: ast.Source, fault_ids: set[int], rng: random.Random
) -> Patch:
    fault_nodes = _fault_nodes(variant_tree, fault_ids)
    if not fault_nodes:
        return parent
    # Try a few target choices before giving up (some targets have no
    # compatible sources).
    for _ in range(8):
        target = rng.choice(fault_nodes)
        sources = fixloc.replacement_sources(variant_tree, target)
        if _is_lhs_position(variant_tree, target):
            sources = [s for s in sources if fixloc.is_lvalue_expr(s)]
        if not sources:
            continue
        source = rng.choice(sources)
        assert target.node_id is not None
        return parent.extended(Edit("replace", target.node_id, source.clone()))
    return parent


def _is_lhs_position(tree: ast.Source, node: ast.Node) -> bool:
    """Is ``node`` the direct LHS of some assignment?"""
    for candidate in tree.walk():
        if isinstance(
            candidate, (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)
        ):
            if candidate.lhs is node:
                return True
    return False


def apply_fix_pattern(
    parent: Patch,
    variant_tree: ast.Source,
    fault_ids: set[int],
    rng: random.Random,
    extended: bool = False,
) -> Patch:
    """Apply a random repair template to a random applicable fault node
    (Algorithm 1 line 8).  With ``extended``, the future-work template set
    from :mod:`repro.core.templates_ext` joins the candidate pool."""
    candidates: list[tuple[int, str]] = []
    for node in _fault_nodes(variant_tree, fault_ids):
        for name in applicable_templates(node):
            assert node.node_id is not None
            candidates.append((node.node_id, name))
    if extended:
        from .templates_ext import applicable_extended, extra_candidates

        for node in _fault_nodes(variant_tree, fault_ids):
            for name in applicable_extended(node):
                assert node.node_id is not None
                candidates.append((node.node_id, name))
        candidates.extend(extra_candidates(variant_tree, fault_ids))
    # Sensitivity templates also apply to always blocks *containing* faulty
    # code (and to their individual sensitivity items) even when the Always
    # node itself is not in the fault set — the sensitivity list governs
    # when the implicated assignments execute.
    for node in variant_tree.walk():
        if isinstance(node, ast.Always) and node.senslist is not None:
            contains_fault = any(
                child.node_id in fault_ids for child in node.walk() if child.node_id
            )
            if contains_fault:
                targets: list[ast.Node] = [node, *node.senslist.items]
                for target in targets:
                    for name in applicable_templates(target):
                        if target.node_id is not None:
                            candidates.append((target.node_id, name))
    if not candidates:
        return parent
    # Mixed sampling.  Pattern-first choice (uniform over template names,
    # then over that pattern's targets) keeps rare-but-decisive patterns —
    # one sensitivity list among dozens of numeric literals — discoverable;
    # uniform choice over (target, template) pairs favours target-rich
    # patterns when the defect is numeric.  Half/half covers both shapes.
    if rng.random() < 0.5:
        by_template: dict[str, list[int]] = {}
        for target_id, template in candidates:
            by_template.setdefault(template, []).append(target_id)
        template = rng.choice(sorted(by_template))
        target_id = rng.choice(by_template[template])
    else:
        target_id, template = rng.choice(candidates)
    return parent.extended(Edit("template", target_id, template=template))


def crossover(
    parent1: Patch, parent2: Patch, rng: random.Random
) -> tuple[Patch, Patch]:
    """Standard single-point crossover over edit lists (paper §3.4).

    A cut point is picked in each parent; the edit-suffixes to the right of
    the points are swapped, producing two children each carrying genetic
    material from both parents.
    """
    cut1 = rng.randint(0, len(parent1.edits))
    cut2 = rng.randint(0, len(parent2.edits))
    child1 = Patch(parent1.edits[:cut1] + parent2.edits[cut2:])
    child2 = Patch(parent2.edits[:cut2] + parent1.edits[cut1:])
    return child1, child2
