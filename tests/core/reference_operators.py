"""Reference GP operators for the differential checks in ``test_variant.py``.

These are the operators as they were before the variant index: every
query walks the whole variant tree again (the fault nodes, the
replacement and insertion sources, the insertion anchors, the deletable
targets, the LHS test, the extended templates' declarations and the
always blocks that contain a fault).  :mod:`repro.core.operators` must
make the same child from the same RNG state, and leave the RNG in the
same state.
"""

from __future__ import annotations

import random

from repro.core.fixloc import is_lvalue_expr
from repro.core.patch import Edit, Patch
from repro.core.templates import applicable_templates
from repro.core.templates_ext import applicable_extended
from repro.hdl import ast

from .reference_fixloc import insertion_anchors

_INSERTABLE_STATEMENTS = (
    ast.BlockingAssign,
    ast.NonBlockingAssign,
    ast.If,
    ast.Case,
    ast.Block,
    ast.For,
    ast.While,
    ast.RepeatStmt,
    ast.Wait,
    ast.SysTaskCall,
    ast.TaskCall,
    ast.EventTrigger,
)


_FAMILIES: tuple[tuple[type, ...], ...] = (
    (ast.Stmt,),
    (ast.Expr,),
    (ast.ContinuousAssign, ast.Always, ast.Initial, ast.Instance),
    (ast.SensItem,),
    (ast.CaseItem,),
)


def compatible_replacement(target: ast.Node, source: ast.Node) -> bool:
    if type(target) is type(source):
        return True
    for family in _FAMILIES:
        if isinstance(target, family) and isinstance(source, family):
            return True
    return False


def insertion_sources(design: ast.Node) -> list[ast.Node]:
    return [
        node
        for node in design.walk()
        if isinstance(node, _INSERTABLE_STATEMENTS) and node.node_id is not None
    ]


def replacement_sources(design: ast.Node, target: ast.Node) -> list[ast.Node]:
    return [
        node
        for node in design.walk()
        if node is not target
        and node.node_id is not None
        and compatible_replacement(target, node)
    ]


def deletable_targets(design: ast.Node, fault_ids: set[int]) -> list[ast.Node]:
    return [
        node
        for node in design.walk()
        if node.node_id in fault_ids
        and isinstance(node, ast.Stmt)
        and not isinstance(node, ast.Block)
    ]


def extra_candidates(tree: ast.Source, fault_ids: set[int]) -> list[tuple[int, str]]:
    fault_names: set[str] = set()
    for node in tree.walk():
        if node.node_id in fault_ids:
            for sub in node.walk():
                if isinstance(sub, ast.Identifier):
                    fault_names.add(sub.name)
    candidates: list[tuple[int, str]] = []
    for node in tree.walk():
        if (
            isinstance(node, ast.Decl)
            and node.name in fault_names
            and node.node_id is not None
            and "widen_register" in applicable_extended(node)
        ):
            candidates.append((node.node_id, "widen_register"))
    return candidates


def mutate(
    parent: Patch,
    variant_tree: ast.Source,
    fault_ids: set[int],
    rng: random.Random,
    delete_threshold: float = 0.3,
    insert_threshold: float = 0.3,
) -> Patch:
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


def _mutate_delete(parent, variant_tree, fault_ids, rng):
    targets = deletable_targets(variant_tree, fault_ids)
    if not targets:
        return parent
    target = rng.choice(targets)
    return parent.extended(Edit("delete", target.node_id))


def _mutate_insert(parent, variant_tree, fault_ids, rng):
    sources = insertion_sources(variant_tree)
    all_anchors = insertion_anchors(variant_tree)
    anchors = [node for node in all_anchors if node.node_id in fault_ids] or all_anchors
    if not sources or not anchors:
        return parent
    source = rng.choice(sources)
    anchor = rng.choice(anchors)
    return parent.extended(Edit("insert_after", anchor.node_id, source.clone()))


def _mutate_replace(parent, variant_tree, fault_ids, rng):
    fault_nodes = _fault_nodes(variant_tree, fault_ids)
    if not fault_nodes:
        return parent
    for _ in range(8):
        target = rng.choice(fault_nodes)
        sources = replacement_sources(variant_tree, target)
        if _is_lhs_position(variant_tree, target):
            sources = [s for s in sources if is_lvalue_expr(s)]
        if not sources:
            continue
        source = rng.choice(sources)
        return parent.extended(Edit("replace", target.node_id, source.clone()))
    return parent


def _is_lhs_position(tree: ast.Source, node: ast.Node) -> bool:
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
    candidates: list[tuple[int, str]] = []
    for node in _fault_nodes(variant_tree, fault_ids):
        for name in applicable_templates(node):
            candidates.append((node.node_id, name))
    if extended:
        for node in _fault_nodes(variant_tree, fault_ids):
            for name in applicable_extended(node):
                candidates.append((node.node_id, name))
        candidates.extend(extra_candidates(variant_tree, fault_ids))
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
    if rng.random() < 0.5:
        by_template: dict[str, list[int]] = {}
        for target_id, template in candidates:
            by_template.setdefault(template, []).append(target_id)
        template = rng.choice(sorted(by_template))
        target_id = rng.choice(by_template[template])
    else:
        target_id, template = rng.choice(candidates)
    return parent.extended(Edit("template", target_id, template=template))


def crossover(parent1: Patch, parent2: Patch, rng: random.Random) -> tuple[Patch, Patch]:
    cut1 = rng.randint(0, len(parent1.edits))
    cut2 = rng.randint(0, len(parent2.edits))
    child1 = Patch(parent1.edits[:cut1] + parent2.edits[cut2:])
    child2 = Patch(parent2.edits[:cut2] + parent1.edits[cut1:])
    return child1, child2
