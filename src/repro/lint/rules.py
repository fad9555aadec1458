"""The lint rule catalog (codes L001–L008).

Every rule is a small stateless class satisfying the
:class:`~repro.lint.diagnostics.LintRule` protocol; the registry at the
bottom (:data:`RULES`, :func:`resolve_rules`) is what the engine and the
CLI select from.  Codes are stable: they never change meaning and are
never reused, so golden snapshots and rule specs survive rule additions.

Severities encode how a finding relates to the design:

- ``error`` rules (multi-driver, comb-loop) describe structurally doomed
  designs — no simulation can make them behave;
- ``warning``/``info`` rules describe style and likely-bug patterns that
  a *correct* design may legitimately contain.
"""

from __future__ import annotations

from typing import Iterator

from ..hdl import ast
from ..hdl.dataflow import expr_names, lhs_names, lhs_read_names
from .diagnostics import Diagnostic, LintRule
from .model import (
    CONST_KINDS,
    LOOPVAR_KINDS,
    ModuleModel,
    ProcessInfo,
    anchor_line,
)


def _diag(
    rule: "LintRule",
    model: ModuleModel,
    message: str,
    node: ast.Node | None = None,
) -> Diagnostic:
    """Build one diagnostic anchored at ``node`` (or the module)."""
    anchor = node if node is not None else model.module
    return Diagnostic(
        module=model.module.name,
        line=anchor_line(anchor),
        code=rule.code,
        rule=rule.name,
        severity=rule.severity,
        message=message,
        node_id=anchor.node_id,
    )


# ----------------------------------------------------------------------
# L001 — multiple drivers
# ----------------------------------------------------------------------


class MultiDriverRule:
    """A name driven by more than one continuous assign / always block.

    ``initial`` blocks do not count as drivers (one-shot initialisation
    is the universal testbench idiom), and loop counters are exempt.
    Several assignments *inside one* always block are fine — the conflict
    is between concurrent drivers.
    """

    code = "L001"
    name = "multi-driver"
    severity = "error"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each name with two or more concurrent drivers."""
        drivers: dict[str, list[tuple[str, ast.Node]]] = {}
        for ca in model.continuous:
            for name in lhs_names(ca.lhs):
                drivers.setdefault(name, []).append(("assign", ca))
        for proc in model.processes:
            if proc.kind == "initial":
                continue
            for name in sorted(proc.assigned):
                drivers.setdefault(name, []).append(("always", proc.item))
        for name in sorted(drivers):
            if model.is_loopvar(name):
                continue
            if "event" in model.decl_kinds.get(name, set()):
                continue
            sites = drivers[name]
            if len(sites) < 2:
                continue
            n_assign = sum(1 for kind, _ in sites if kind == "assign")
            n_always = len(sites) - n_assign
            parts = []
            if n_assign:
                parts.append(f"{n_assign} continuous assign{'s' if n_assign > 1 else ''}")
            if n_always:
                parts.append(f"{n_always} always block{'s' if n_always > 1 else ''}")
            # Anchor at the second driver — the one creating the conflict.
            yield _diag(
                self, model,
                f"'{name}' has multiple drivers ({' and '.join(parts)})",
                sites[1][1],
            )


# ----------------------------------------------------------------------
# L002 — blocking / non-blocking mix
# ----------------------------------------------------------------------


class BlockingMixRule:
    """Blocking and non-blocking assignments mixed inside one always.

    Loop counters (``integer``/``genvar``/``time`` variables) are exempt:
    ``for (i = 0; ...)`` with ``<=`` datapath assignments is idiomatic.
    Timed (sensitivity-less) and ``initial`` processes are testbench
    machinery and are not checked.
    """

    code = "L002"
    name = "blocking-nonblocking-mix"
    severity = "warning"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each always block mixing assignment styles."""
        for proc in model.processes:
            if proc.kind not in ("comb_star", "comb", "seq"):
                continue
            blocking = [
                a for a in proc.blocking
                if not all(model.is_loopvar(n) for n in lhs_names(a.lhs) or {""})
            ]
            if blocking and proc.nonblocking:
                yield _diag(
                    self, model,
                    f"always block mixes {len(blocking)} blocking and "
                    f"{len(proc.nonblocking)} non-blocking assignments",
                    proc.item,
                )


# ----------------------------------------------------------------------
# L003 — incomplete sensitivity list
# ----------------------------------------------------------------------


class IncompleteSensitivityRule:
    """A level-sensitive always reads signals missing from its list.

    ``always @*`` is complete by construction; edge-triggered and timed
    processes are exempt.  Names the process itself assigns are treated
    as internal (reading them back is self-feedback, the comb-loop
    rule's business), and parameters/loop counters are not events.
    """

    code = "L003"
    name = "incomplete-sensitivity"
    severity = "warning"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each level-sensitive block with missing events."""
        for proc in model.processes:
            if proc.kind != "comb":
                continue
            relevant = {n for n in proc.external_reads if model.is_signal(n)}
            missing = sorted(relevant - set(proc.sens_names) - set(proc.assigned))
            if missing:
                yield _diag(
                    self, model,
                    "sensitivity list is missing read signal"
                    f"{'s' if len(missing) > 1 else ''}: {', '.join(missing)}",
                    proc.item,
                )


# ----------------------------------------------------------------------
# L004 — inferred latch
# ----------------------------------------------------------------------


def _may_must(stmt: ast.Stmt | None) -> tuple[set[str], set[str]]:
    """(names assigned on some path, names assigned on every path)."""
    if stmt is None:
        return set(), set()
    if isinstance(stmt, ast.Block):
        may: set[str] = set()
        must: set[str] = set()
        for sub in stmt.stmts:
            m, n = _may_must(sub)
            may |= m
            must |= n
        return may, must
    if isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
        names = lhs_names(stmt.lhs)
        return set(names), set(names)
    if isinstance(stmt, ast.If):
        then_may, then_must = _may_must(stmt.then_stmt)
        else_may, else_must = _may_must(stmt.else_stmt)
        may = then_may | else_may
        must = (then_must & else_must) if stmt.else_stmt is not None else set()
        return may, must
    if isinstance(stmt, ast.Case):
        arms = [_may_must(item.stmt) for item in stmt.items]
        may = set().union(*(a[0] for a in arms)) if arms else set()
        has_default = any(not item.exprs for item in stmt.items)
        if arms and has_default:
            must = set.intersection(*(a[1] for a in arms))
        else:
            must = set()
        return may, must
    if isinstance(stmt, ast.For):
        # Combinational for-loops conventionally have static bounds and
        # execute; treating the body as taken avoids flagging the
        # ``for (i..) out[i] = in[i];`` unrolling idiom as a latch.
        init_may, init_must = _may_must(stmt.init)
        step_may, step_must = _may_must(stmt.step)
        body_may, body_must = _may_must(stmt.body)
        return (
            init_may | step_may | body_may,
            init_must | step_must | body_must,
        )
    if isinstance(stmt, (ast.While, ast.RepeatStmt, ast.Forever)):
        return _may_must(stmt.body)[0], set()
    if isinstance(stmt, (ast.Wait, ast.DelayStmt, ast.EventControl)):
        return _may_must(stmt.body)
    return set(), set()


class InferredLatchRule:
    """A combinational always assigns a register on some but not all paths.

    The classic incomplete-``if``/``case`` pattern: synthesis infers a
    level-sensitive latch to hold the stale value.  One diagnostic per
    latched name, so a report's profile counts each latched signal.
    """

    code = "L004"
    name = "inferred-latch"
    severity = "warning"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each register latched by an incomplete path."""
        for proc in model.processes:
            if not proc.is_combinational:
                continue
            may, must = _may_must(proc.item.body)
            for name in sorted(may - must):
                if not model.is_register(name):
                    continue
                yield _diag(
                    self, model,
                    f"'{name}' is not assigned on every path through this "
                    "combinational always: latch inferred",
                    proc.item,
                )


# ----------------------------------------------------------------------
# L005 — combinational loop
# ----------------------------------------------------------------------


def _comb_dependencies(model: ModuleModel) -> dict[str, tuple[set[str], ast.Node]]:
    """name → (combinationally-read names it depends on, driver anchor).

    Process edges come from *external* reads only: a name the block
    overwrites before reading (``p = 0; ... p = p ^ a;``) is an internal
    accumulator, not feedback from the previous activation.  Loop
    counters never carry combinational state and are excluded on both
    sides of every edge.
    """
    deps: dict[str, tuple[set[str], ast.Node]] = {}
    for ca in model.continuous:
        reads = {
            n
            for n in expr_names(ca.rhs) | lhs_read_names(ca.lhs)
            if not model.is_loopvar(n)
        }
        for name in lhs_names(ca.lhs):
            entry = deps.setdefault(name, (set(), ca))
            entry[0].update(reads)
    for proc in model.processes:
        if not proc.is_combinational:
            continue
        # Only reads the process re-triggers on can propagate through it
        # combinationally; @* sees everything it externally reads.
        visible = (
            set(proc.external_reads)
            if proc.kind == "comb_star"
            else set(proc.external_reads) & set(proc.sens_names)
        )
        visible = {n for n in visible if not model.is_loopvar(n)}
        for name in proc.assigned:
            if model.is_loopvar(name):
                continue
            entry = deps.setdefault(name, (set(), proc.item))
            entry[0].update(visible)
    return deps


def _strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC over a name graph (iterative; deterministic order)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = []
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(sorted(graph.get(root, ())))))
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in graph:
                    continue
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


class CombLoopRule:
    """A cycle in the combinational dataflow graph.

    Edges: a continuous assign's target depends on every name its RHS
    reads; a combinational always' targets depend on the reads the block
    re-triggers on.  Sequential blocks break the cycle (the register is
    the loop's state element) and so contribute no edges.  One diagnostic
    per strongly connected component.
    """

    code = "L005"
    name = "comb-loop"
    severity = "error"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each strongly connected dataflow component."""
        deps = _comb_dependencies(model)
        graph = {name: reads for name, (reads, _) in deps.items()}
        for scc in _strongly_connected(graph):
            if len(scc) == 1:
                name = scc[0]
                if name not in graph.get(name, ()):  # no self-edge
                    continue
            cycle = " -> ".join(scc + [scc[0]])
            yield _diag(
                self, model,
                f"combinational feedback loop: {cycle}",
                deps[scc[0]][1],
            )


# ----------------------------------------------------------------------
# L006 — undeclared identifier
# ----------------------------------------------------------------------


class UndeclaredIdentifierRule:
    """A referenced name with no declaration in the module.

    The known-name set covers declarations, parameters, ports, functions,
    tasks, function/task locals and return registers, instance names, and
    named blocks.  System names (``$time``…) are the simulator's.
    """

    code = "L006"
    name = "undeclared-ident"
    severity = "warning"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each name referenced without a declaration."""
        known: set[str] = set(model.decl_kinds)
        known |= set(model.module.port_names)
        known |= set(model.functions)
        known |= set(model.tasks)
        known |= model.named_blocks
        known |= {inst.name for inst in model.instances}
        for func in model.functions.values():
            known |= {decl.name for decl in func.decls}
        for task in model.tasks.values():
            known |= {decl.name for decl in task.decls}
        for name in sorted(model.references):
            if name in known or name.startswith("$"):
                continue
            yield _diag(
                self, model,
                f"'{name}' is used but never declared",
                model.references[name],
            )


# ----------------------------------------------------------------------
# L007 — unused declaration
# ----------------------------------------------------------------------


class UnusedDeclRule:
    """A declared net/variable that nothing reads or writes.

    Ports and parameters are part of the module's interface and are
    never flagged.
    """

    code = "L007"
    name = "unused-decl"
    severity = "info"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each declaration nothing references."""
        for name in sorted(model.decl_nodes):
            kinds = model.decl_kinds[name]
            if kinds & CONST_KINDS or "genvar" in kinds:
                continue
            if model.is_port(name):
                continue
            if name in model.references:
                continue
            decl = model.decl_nodes[name]
            yield _diag(
                self, model,
                f"'{name}' is declared but never used",
                decl,
            )


# ----------------------------------------------------------------------
# L008 — width mismatch
# ----------------------------------------------------------------------

_CONST_FOLD_OPS = {"+", "-", "*"}


def _const_int(expr: ast.Expr | None, model: ModuleModel, depth: int = 0) -> int | None:
    """Evaluate a compile-time-constant expression, or None."""
    if expr is None or depth > 8:
        return None
    if isinstance(expr, ast.Number):
        return expr.aval if expr.bval == 0 else None
    if isinstance(expr, ast.Identifier):
        if expr.name in model.params:
            return _const_int(model.params[expr.name], model, depth + 1)
        return None
    if isinstance(expr, ast.UnaryOp):
        value = _const_int(expr.operand, model, depth + 1)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        return None
    if isinstance(expr, ast.BinaryOp) and expr.op in _CONST_FOLD_OPS:
        left = _const_int(expr.left, model, depth + 1)
        right = _const_int(expr.right, model, depth + 1)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    return None


def _range_width(
    msb: ast.Expr | None, lsb: ast.Expr | None, model: ModuleModel
) -> int | None:
    if msb is None or lsb is None:
        return 1
    high = _const_int(msb, model)
    low = _const_int(lsb, model)
    if high is None or low is None:
        return None
    return abs(high - low) + 1


def _decl_width(decl: ast.Decl, model: ModuleModel) -> int | None:
    if decl.kind in ("integer", "time"):
        return 32 if decl.kind == "integer" else 64
    if decl.kind in ("real", "event"):
        return None
    return _range_width(decl.msb, decl.lsb, model)


_BOOL_OPS = frozenset(
    {"==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"}
)


def _expr_width(expr: ast.Expr | None, model: ModuleModel) -> int | None:
    """Static bit width of an expression, or None when not derivable.

    Unsized literals and unknown names yield None, which makes the rule
    conservative: ``x + 1`` never flags, only fully-sized truncations do.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Number):
        return expr.width
    if isinstance(expr, ast.Identifier):
        decl = model.decl_nodes.get(expr.name)
        if decl is None:
            return None
        if decl.array_msb is not None:
            return None  # bare memory reference: width is per-element
        return _decl_width(decl, model)
    if isinstance(expr, ast.Index):
        target = expr.target
        if isinstance(target, ast.Identifier):
            decl = model.decl_nodes.get(target.name)
            if decl is not None and decl.array_msb is not None:
                return _range_width(decl.msb, decl.lsb, model)  # word select
        return 1  # bit select
    if isinstance(expr, ast.PartSelect):
        return _range_width(expr.msb, expr.lsb, model)
    if isinstance(expr, ast.Concat):
        total = 0
        for part in expr.parts:
            width = _expr_width(part, model)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, ast.Repeat_):
        count = _const_int(expr.count, model)
        width = _expr_width(expr.value, model)
        if count is None or width is None:
            return None
        return count * width
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "!" or expr.op not in ("~", "+", "-"):
            return 1  # logical not / reductions
        return _expr_width(expr.operand, model)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in _BOOL_OPS:
            return 1
        if expr.op in ("<<", ">>", "<<<", ">>>"):
            return _expr_width(expr.left, model)
        left = _expr_width(expr.left, model)
        right = _expr_width(expr.right, model)
        if left is None or right is None:
            return None
        return max(left, right)
    if isinstance(expr, ast.Ternary):
        true_w = _expr_width(expr.true_expr, model)
        false_w = _expr_width(expr.false_expr, model)
        if true_w is None or false_w is None:
            return None
        return max(true_w, false_w)
    if isinstance(expr, ast.FunctionCall):
        func = model.functions.get(expr.name)
        if func is not None:
            return _range_width(func.msb, func.lsb, model)
        return None
    return None


class WidthMismatchRule:
    """An assignment whose RHS is statically wider than its target.

    Only flags when *both* widths are derivable (sized literals, declared
    ranges, resolvable parameters) — silent truncation of a known-wider
    value.  Implicit extension (narrow RHS) is idiomatic and not flagged.
    """

    code = "L008"
    name = "width-mismatch"
    severity = "warning"

    def _check_assign(
        self, model: ModuleModel, node: ast.Node, lhs: ast.Expr, rhs: ast.Expr
    ) -> Iterator[Diagnostic]:
        lhs_width = _expr_width(lhs, model)
        rhs_width = _expr_width(rhs, model)
        if lhs_width is None or rhs_width is None or rhs_width <= lhs_width:
            return
        targets = ", ".join(sorted(lhs_names(lhs))) or "target"
        yield _diag(
            self, model,
            f"assignment truncates a {rhs_width}-bit value into "
            f"{lhs_width}-bit '{targets}'",
            node,
        )

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        """Report each statically-truncating assignment."""
        for ca in model.continuous:
            yield from self._check_assign(model, ca, ca.lhs, ca.rhs)
        for proc in model.processes:
            for assign in proc.blocking + proc.nonblocking:
                yield from self._check_assign(model, assign, assign.lhs, assign.rhs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Every rule, in code order — the default rule set of :func:`repro.lint.lint_tree`.
RULES: tuple[LintRule, ...] = (
    MultiDriverRule(),
    BlockingMixRule(),
    IncompleteSensitivityRule(),
    InferredLatchRule(),
    CombLoopRule(),
    UndeclaredIdentifierRule(),
    UnusedDeclRule(),
    WidthMismatchRule(),
)

#: Code → rule and slug → rule, for spec resolution.
RULES_BY_KEY: dict[str, LintRule] = {}
for _rule in RULES:
    RULES_BY_KEY[_rule.code] = _rule
    RULES_BY_KEY[_rule.name] = _rule


def resolve_rules(spec: str | None) -> tuple[LintRule, ...]:
    """Resolve a comma-separated spec of codes/slugs to rule instances.

    ``None`` or ``"all"`` selects every rule.  Raises ``ValueError``
    naming the first unknown entry.  The result is deduplicated and in
    canonical code order regardless of spec order.
    """
    if spec is None or spec.strip().lower() in ("", "all"):
        return RULES
    chosen: set[str] = set()
    for entry in spec.split(","):
        key = entry.strip()
        if not key:
            continue
        rule = RULES_BY_KEY.get(key)
        if rule is None:
            raise ValueError(
                f"unknown lint rule {key!r} "
                f"(valid: {', '.join(r.code + '/' + r.name for r in RULES)})"
            )
        chosen.add(rule.code)
    return tuple(rule for rule in RULES if rule.code in chosen)
