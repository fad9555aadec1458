"""Repair templates (paper §3.3, Table 1).

Nine pre-identified fix patterns across four defect categories:

=================  ==============================================
Category           Templates
=================  ==============================================
Conditionals       ``negate_conditional``
Sensitivity lists  ``sens_negedge``, ``sens_posedge``,
                   ``sens_any_change``, ``sens_level``
Assignments        ``blocking_to_nonblocking``,
                   ``nonblocking_to_blocking``
Numeric            ``increment_by_one``, ``decrement_by_one``
=================  ==============================================

A template is applied to a target node (chosen from the fault localization
set); :func:`applicable_templates` reports which templates fit which node.
:func:`rewrite` builds the rewritten node without touching the target, so
:meth:`~repro.core.patch.Patch.apply` can put it straight into the slot
it has already located and copied; :func:`apply_template` is the
whole-tree form, which searches a tree for the target and edits the tree
in place.
"""

from __future__ import annotations

from ..hdl import ast
from ..hdl.node_ids import number_nodes
from .variant import Step, path_to

#: All template names, grouped by the paper's defect categories.
TEMPLATES_BY_CATEGORY: dict[str, tuple[str, ...]] = {
    "conditionals": ("negate_conditional",),
    "sensitivity": ("sens_negedge", "sens_posedge", "sens_any_change", "sens_level"),
    "assignments": ("blocking_to_nonblocking", "nonblocking_to_blocking"),
    "numeric": ("increment_by_one", "decrement_by_one"),
}

ALL_TEMPLATES: tuple[str, ...] = tuple(
    name for group in TEMPLATES_BY_CATEGORY.values() for name in group
)


def applicable_templates(node: ast.Node) -> list[str]:
    """Templates that can rewrite ``node``."""
    names: list[str] = []
    if isinstance(node, (ast.If, ast.While)):
        names.append("negate_conditional")
    if isinstance(node, ast.Always) and node.senslist is not None:
        names.extend(TEMPLATES_BY_CATEGORY["sensitivity"])
    if isinstance(node, ast.SensItem):
        names.extend(("sens_negedge", "sens_posedge", "sens_level"))
    if isinstance(node, ast.BlockingAssign):
        names.append("blocking_to_nonblocking")
    if isinstance(node, ast.NonBlockingAssign):
        names.append("nonblocking_to_blocking")
    if isinstance(node, (ast.Number, ast.Identifier)):
        names.extend(("increment_by_one", "decrement_by_one"))
    return names


def apply_template(name: str, tree: ast.Source, target_id: int, fresh_start: int) -> bool:
    """Apply template ``name`` to node ``target_id`` inside ``tree``, in place.

    Returns True when the rewrite happened (False for stale targets or an
    inapplicable template — both no-ops, per the patch conventions).
    Fresh nodes are numbered from ``fresh_start``.  The target is found
    by a search of ``tree``; the root itself is never rewritten.
    """
    path = path_to(tree, target_id)
    if not path:
        return False
    parent, field, slot = path[0]
    target = getattr(parent, field) if slot is None else getattr(parent, field)[slot]
    return place(parent, field, slot, rewrite(name, target, fresh_start, is_lvalue_head(path)))


def rewrite(
    name: str, target: ast.Node, fresh_start: int, lvalue_head: bool = False
) -> list[ast.Node] | None:
    """Template ``name`` applied to ``target``, which is left untouched.

    Returns the nodes that take the target's place in its slot: the
    rewritten node, or for ``zero_assignment`` the target followed by its
    zeroed duplicate; None when the template does not apply.  A
    rewritten node is a shallow copy of the target and shares every
    subtree the template does not change.  ``lvalue_head`` says that the
    target names the variable an assignment writes (see
    :func:`is_lvalue_head`).
    """
    if name not in applicable_templates(target):
        # Extension templates (paper future work) share the edit kind so a
        # patchlist stays uniform; they live in templates_ext.
        from .templates_ext import EXTENDED_TEMPLATES, rewrite_extended

        if name in EXTENDED_TEMPLATES:
            return rewrite_extended(name, target, fresh_start)
        return None
    if name == "negate_conditional":
        assert isinstance(target, (ast.If, ast.While))
        negated = ast.UnaryOp("!", target.cond)
        negated.node_id = fresh_start  # the wrapped condition keeps its ids
        rewritten = target.copy()
        rewritten.cond = negated  # type: ignore[attr-defined]
        return [rewritten]
    if name.startswith("sens_"):
        return _rewrite_sensitivity(name, target, fresh_start)
    if name == "blocking_to_nonblocking":
        assert isinstance(target, ast.BlockingAssign)
        replacement: ast.Node = ast.NonBlockingAssign(target.lhs, target.rhs, target.delay)
        replacement.node_id = fresh_start
        return [replacement]
    if name == "nonblocking_to_blocking":
        assert isinstance(target, ast.NonBlockingAssign)
        replacement = ast.BlockingAssign(target.lhs, target.rhs, target.delay)
        replacement.node_id = fresh_start
        return [replacement]
    if name in ("increment_by_one", "decrement_by_one"):
        return _rewrite_numeric(name, target, fresh_start, lvalue_head)
    return None


def place(parent: ast.Node, field: str, slot: int | None, nodes: list[ast.Node] | None) -> bool:
    """Put a :func:`rewrite` result in ``parent.<field>`` (item ``slot``
    of that list when ``slot`` is not None); True when something changed.
    Two nodes need a list slot: a scalar slot takes no insertion."""
    if nodes is None:
        return False
    if len(nodes) == 1:
        if slot is None:
            setattr(parent, field, nodes[0])
        else:
            getattr(parent, field)[slot] = nodes[0]
        return True
    if slot is None:
        return False
    getattr(parent, field)[slot:slot + 1] = nodes
    return True


def is_lvalue_head(path: list[Step]) -> bool:
    """Does the node ``path`` leads to name the variable being assigned?

    That is, it is reachable from an assignment's ``lhs`` slot through
    ``Index``/``PartSelect`` target links only (``path`` is deepest step
    first, as :func:`~repro.core.variant.path_to` returns it).
    Identifiers inside a concatenation lvalue or an index expression are
    fine — a rewritten ``{a, b[(i + 1)]} = rhs;`` still parses.
    """
    for parent, field, _ in path:
        if isinstance(
            parent, (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)
        ):
            return field == "lhs"
        if not (isinstance(parent, (ast.Index, ast.PartSelect)) and field == "target"):
            return False
    return False


_EDGES = {"sens_negedge": "negedge", "sens_posedge": "posedge", "sens_level": "level"}


def _rewrite_sensitivity(
    name: str, target: ast.Node, fresh_start: int
) -> list[ast.Node] | None:
    """Rewrite a sensitivity list (on an Always block or a single item)."""
    if isinstance(target, ast.SensItem):
        if target.signal is None or name not in _EDGES:
            return None
        item = target.copy()
        item.edge = _EDGES[name]  # type: ignore[attr-defined]
        return [item]
    assert isinstance(target, ast.Always) and target.senslist is not None
    always = target.copy()
    senslist = always.senslist = target.senslist.copy()  # type: ignore[attr-defined]
    if name == "sens_any_change":
        # Trigger on any change to a variable within the block: @(*).
        new_item = ast.SensItem("all", None)
        number_nodes(new_item, fresh_start)
        senslist.items = [new_item]
        return [always]
    items = senslist.items
    if not items or items[0].signal is None or name not in _EDGES:
        return None
    first = items[0] = items[0].copy()
    first.edge = _EDGES[name]
    return [always]


def _rewrite_numeric(
    name: str, target: ast.Node, fresh_start: int, lvalue_head: bool
) -> list[ast.Node] | None:
    delta = 1 if name == "increment_by_one" else -1
    if isinstance(target, ast.Number):
        # Adjust the literal itself (off-by-one style numeric errors).
        if target.bval != 0:
            return None
        width = target.width
        eff_width = width if width is not None else 32
        new_value = (target.aval + delta) & ((1 << eff_width) - 1)
        replacement = ast.Number.from_int(new_value, width)
        replacement.node_id = fresh_start
        return [replacement]
    if isinstance(target, ast.Identifier):
        if lvalue_head:
            # Wrapping the head of an assignment target would emit
            # ``(a + 1) = rhs;`` which no longer parses — refuse (no-op).
            return None
        op = "+" if delta == 1 else "-"
        wrapped = ast.BinaryOp(op, ast.Identifier(target.name), ast.Number.from_int(1))
        number_nodes(wrapped, fresh_start)
        return [wrapped]
    return None
