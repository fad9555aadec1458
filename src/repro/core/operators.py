"""GP repair operators: mutation (replace / insert / delete) and
single-point crossover (paper §3.4), plus template application (§3.3).

All operators act on :class:`~repro.core.patch.Patch` values against the
current *variant tree* (the base design with the parent's patch applied),
so the fault/fix spaces reflect every edit the parent already carries.
They ask the parent's :class:`~repro.core.variant.VariantIndex`, memoised
on the parent (:func:`~repro.core.variant.patch_index`), instead of
walking the tree: the fault nodes, the sources and anchors, the LHS
positions and the template targets come from one pass per parent.
"""

from __future__ import annotations

import random
from collections.abc import Collection

from ..hdl import ast
from . import fixloc
from .patch import Edit, Patch
from .templates import applicable_templates
from .variant import NodeView, VariantIndex, patch_index


def mutate(
    parent: Patch,
    variant_tree: ast.Source,
    fault_ids: Collection[int],
    rng: random.Random,
    delete_threshold: float = 0.3,
    insert_threshold: float = 0.3,
) -> Patch:
    """Apply one mutation (replace/insert/delete) to ``parent``.

    The sub-operator is chosen by the user thresholds (paper §4.2 defaults:
    delete 0.3, insert 0.3, replace 0.4).  When the chosen sub-operator has
    no applicable site the parent is returned unchanged (a neutral child).
    """
    index = patch_index(parent, variant_tree)
    roll = rng.random()
    if roll < delete_threshold:
        return _mutate_delete(parent, index, fault_ids, rng)
    if roll < delete_threshold + insert_threshold:
        return _mutate_insert(parent, index, fault_ids, rng)
    return _mutate_replace(parent, index, fault_ids, rng)


def _mutate_delete(
    parent: Patch, index: VariantIndex, fault_ids: Collection[int], rng: random.Random
) -> Patch:
    targets = fixloc.deletable_targets(index, fault_ids)
    if not targets:
        return parent
    target = rng.choice(targets)
    assert target.node_id is not None
    return parent.extended(Edit("delete", target.node_id))


def _mutate_insert(
    parent: Patch, index: VariantIndex, fault_ids: Collection[int], rng: random.Random
) -> Patch:
    sources = fixloc.insertion_sources(index)
    anchors = _fault_anchors(index, fault_ids)
    if not sources or not anchors:
        return parent
    source = rng.choice(sources)
    anchor = rng.choice(anchors)
    assert anchor.node_id is not None
    return parent.extended(Edit("insert_after", anchor.node_id, source.clone()))


def _fault_anchors(index: VariantIndex, fault_ids: Collection[int]) -> list[ast.Node]:
    """The insertion anchors in the fault set, or all of them when none is."""
    anchors = fixloc.insertion_anchors(index)
    return index.for_faults("fault_anchors", fault_ids, lambda: (
        [node for node in anchors if node.node_id in fault_ids] or anchors
    ))


def _mutate_replace(
    parent: Patch, index: VariantIndex, fault_ids: Collection[int], rng: random.Random
) -> Patch:
    fault_positions = index.fault_positions(fault_ids)
    if not fault_positions:
        return parent
    fault_nodes = NodeView(index.nodes, fault_positions)
    lhs = index.lhs_positions()
    # Try a few target choices before giving up (some targets have no
    # compatible sources).
    for _ in range(8):
        target = rng.choice(fault_nodes)
        if index.positions[target.node_id] in lhs:  # type: ignore[index]
            sources = fixloc.lvalue_sources(index, target)
        else:
            sources = fixloc.replacement_sources(index, target)
        if not sources:
            continue
        source = rng.choice(sources)
        assert target.node_id is not None
        return parent.extended(Edit("replace", target.node_id, source.clone()))
    return parent


def apply_fix_pattern(
    parent: Patch,
    variant_tree: ast.Source,
    fault_ids: Collection[int],
    rng: random.Random,
    extended: bool = False,
) -> Patch:
    """Apply a random repair template to a random applicable fault node
    (Algorithm 1 line 8).  With ``extended``, the future-work template set
    from :mod:`repro.core.templates_ext` joins the candidate pool."""
    index = patch_index(parent, variant_tree)
    candidates, by_template = index.for_faults(
        ("template_candidates", extended), fault_ids,
        lambda: _template_candidates(index, fault_ids, extended),
    )
    if not candidates:
        return parent
    # Mixed sampling.  Pattern-first choice (uniform over template names,
    # then over that pattern's targets) keeps rare-but-decisive patterns —
    # one sensitivity list among dozens of numeric literals — discoverable;
    # uniform choice over (target, template) pairs favours target-rich
    # patterns when the defect is numeric.  Half/half covers both shapes.
    if rng.random() < 0.5:
        template = rng.choice(sorted(by_template))
        target_id = rng.choice(by_template[template])
    else:
        target_id, template = rng.choice(candidates)
    return parent.extended(Edit("template", target_id, template=template))


def _template_candidates(
    index: VariantIndex, fault_ids: Collection[int], extended: bool
) -> tuple[list[tuple[int, str]], dict[str, list[int]]]:
    """Every (target id, template) pair for this fault set, and the target
    ids of each template."""
    nodes, ids = index.nodes, index.ids
    faults = index.fault_positions(fault_ids)
    candidates: list[tuple[int, str]] = [
        (ids[position], name)  # type: ignore[misc]
        for position in faults
        for name in applicable_templates(nodes[position])
    ]
    if extended:
        from .templates_ext import applicable_extended, extra_candidates

        candidates.extend(
            (ids[position], name)  # type: ignore[misc]
            for position in faults
            for name in applicable_extended(nodes[position])
        )
        candidates.extend(extra_candidates(index, fault_ids))
    # Sensitivity templates also apply to always blocks *containing* faulty
    # code (and to their individual sensitivity items) even when the Always
    # node itself is not in the fault set — the sensitivity list governs
    # when the implicated assignments execute.
    for position in _sensitive_always(index):
        if index.contains_any(position, faults):
            node = nodes[position]
            for target in (node, *node.senslist.items):  # type: ignore[attr-defined]
                for name in applicable_templates(target):
                    if target.node_id is not None:
                        candidates.append((target.node_id, name))
    by_template: dict[str, list[int]] = {}
    for target_id, template in candidates:
        by_template.setdefault(template, []).append(target_id)
    return candidates, by_template


def _sensitive_always(index: VariantIndex) -> list[int]:
    """The positions of the always blocks that have a sensitivity list."""
    found = index.views.get("sensitive_always")
    if found is None:
        found = index.views["sensitive_always"] = [
            position
            for position, node in enumerate(index.nodes)
            if isinstance(node, ast.Always) and node.senslist is not None
        ]
    return found  # type: ignore[return-value]


def crossover(
    parent1: Patch, parent2: Patch, rng: random.Random
) -> tuple[Patch, Patch]:
    """Standard single-point crossover over edit lists (paper §3.4).

    A cut point is picked in each parent; the edit-suffixes to the right of
    the points are swapped, producing two children each carrying genetic
    material from both parents.  A child whose cut keeps all of its first
    parent's edits remembers that parent as its prefix (see
    :meth:`Patch.apply <repro.core.patch.Patch.apply>`).
    """
    cut1 = rng.randint(0, len(parent1.edits))
    cut2 = rng.randint(0, len(parent2.edits))
    child1 = Patch(parent1.edits[:cut1] + parent2.edits[cut2:])
    child2 = Patch(parent2.edits[:cut2] + parent1.edits[cut1:])
    for child, parent, cut in ((child1, parent1, cut1), (child2, parent2, cut2)):
        if cut == len(parent.edits):
            child._prefix = parent  # type: ignore[attr-defined]
    return child1, child2
