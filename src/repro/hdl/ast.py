"""Abstract syntax tree for the supported Verilog subset.

Every node carries a ``node_id`` assigned by :mod:`repro.hdl.node_ids` after
parsing.  The repair engine refers to nodes exclusively by these ids, so the
tree supports generic traversal (:meth:`Node.walk`), lookup by id, deep
cloning, and structural replacement by id — the primitives needed by the
CirFix patch representation.

Field conventions: each node class declares ``_fields``, a tuple of attribute
names.  An attribute value is a :class:`Node`, a ``list`` of nodes, or a
plain Python value (``str``/``int``/``None``).  Generic machinery inspects
values at runtime, so adding a node class only requires declaring its fields.
"""

from __future__ import annotations

from typing import Iterator


class Node:
    """Base class for all AST nodes."""

    _fields: tuple[str, ...] = ()
    #: Extra attributes that carry semantic state but are not child slots
    #: (literal planes, signedness flags, port order).  Compared by
    #: :func:`structural_diff` alongside ``_fields``.
    _attrs: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.node_id: int | None = None
        #: 1-based source line of the token that started this node, set by
        #: the parser for statements and module items (None elsewhere, and
        #: for synthesised nodes).  Not part of ``_fields``/``_attrs``:
        #: structural comparison and codegen ignore it; it only anchors
        #: diagnostics (:mod:`repro.lint`).
        self.line: int | None = None

    # ------------------------------------------------------------------
    # Generic traversal
    # ------------------------------------------------------------------

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes in field order."""
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in preorder.

        Iterative: a node's children are read after the node is yielded
        and pushed in reverse, so the order is the recursive preorder's
        without a generator frame per level of nesting."""
        stack: list[Node] = [self]
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            yield node
            children = []
            for name in node._fields:
                value = getattr(node, name)
                if isinstance(value, Node):
                    children.append(value)
                elif isinstance(value, list):
                    children.extend([item for item in value if isinstance(item, Node)])
            children.reverse()
            push(children)

    def find(self, node_id: int) -> "Node | None":
        """Return the descendant (or self) with the given id, if any."""
        for node in self.walk():
            if node.node_id == node_id:
                return node
        return None

    def copy(self) -> "Node":
        """Shallow copy: a node of the same type with the same attribute
        values, list attributes copied so the copy's slots can change
        without touching this node's."""
        new = object.__new__(type(self))
        for key, value in self.__dict__.items():
            new.__dict__[key] = value.copy() if isinstance(value, list) else value
        return new

    def clone(self) -> "Node":
        """Deep-copy this subtree, preserving node ids.

        Patch application clones every payload it inserts and every
        template target it rewrites (the rest of an applied tree is
        shared with the design and must not be mutated), so this copies
        field by field instead of calling ``copy.deepcopy``, which is
        several times slower.  The result is the same because attribute
        values are nodes, lists of nodes or strings, and immutable
        scalars, and no node appears twice in one tree.
        """
        new = object.__new__(type(self))
        for key, value in self.__dict__.items():
            if isinstance(value, Node):
                value = value.clone()
            elif isinstance(value, list):
                value = [item.clone() if isinstance(item, Node) else item for item in value]
            new.__dict__[key] = value
        return new

    def replace(self, node_id: int, replacement: "Node | None") -> bool:
        """Replace the descendant with ``node_id`` by ``replacement``.

        A ``None`` replacement deletes the node: if it lives in a list field
        it is removed; if it occupies a scalar field the field is set to
        ``None``.  Returns True when a replacement happened.
        """
        for node in self.walk():
            for name in node._fields:
                value = getattr(node, name)
                if isinstance(value, Node) and value.node_id == node_id:
                    setattr(node, name, replacement)
                    return True
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, Node) and item.node_id == node_id:
                            if replacement is None:
                                del value[i]
                            else:
                                value[i] = replacement
                            return True
        return False

    def insert_after(self, anchor_id: int, new_node: "Node") -> bool:
        """Insert ``new_node`` after the node ``anchor_id`` in its list field.

        Only succeeds when the anchor lives in a list-valued field (e.g. the
        statements of a block); scalar positions cannot take an insertion.
        """
        for node in self.walk():
            for name in node._fields:
                value = getattr(node, name)
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, Node) and item.node_id == anchor_id:
                            value.insert(i + 1, new_node)
                            return True
        return False

    # ------------------------------------------------------------------
    # Equality / debugging
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""


class Identifier(Expr):
    _fields = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class Number(Expr):
    """An integer literal, possibly based and sized.

    ``width`` is None for unsized literals.  ``aval``/``bval`` use the VPI
    two-integer encoding: bit pair (a, b) is 0=(0,0), 1=(1,0), z=(0,1),
    x=(1,1).  ``text`` preserves the original spelling for code generation.
    """

    _fields = ("text",)
    _attrs = ("width", "aval", "bval", "signed")

    def __init__(self, text: str, width: int | None, aval: int, bval: int, signed: bool = False):
        super().__init__()
        self.text = text
        self.width = width
        self.aval = aval
        self.bval = bval
        self.signed = signed

    @staticmethod
    def from_int(value: int, width: int | None = None) -> "Number":
        """Build a plain decimal literal node from a Python int.

        Without a width the literal is unsized, and an unsized decimal
        is signed, as the parser reads its text.
        """
        if value < 0:
            raise ValueError("use an explicit width for negative constants")
        if width is None:
            return Number(str(value), None, value, 0, signed=True)
        mask = (1 << width) - 1
        return Number(f"{width}'d{value & mask}", width, value & mask, 0)


class RealNumber(Expr):
    _fields = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text
        self.value = float(text)


class StringConst(Expr):
    _fields = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text


class UnaryOp(Expr):
    """Unary operator: ! ~ + - and reductions & | ^ ~& ~| ~^."""

    _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        super().__init__()
        self.op = op
        self.operand = operand


class BinaryOp(Expr):
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        super().__init__()
        self.op = op
        self.left = left
        self.right = right


class Ternary(Expr):
    _fields = ("cond", "true_expr", "false_expr")

    def __init__(self, cond: Expr, true_expr: Expr, false_expr: Expr):
        super().__init__()
        self.cond = cond
        self.true_expr = true_expr
        self.false_expr = false_expr


class Index(Expr):
    """Bit- or word-select: ``var[i]``."""

    _fields = ("target", "index")

    def __init__(self, target: Expr, index: Expr):
        super().__init__()
        self.target = target
        self.index = index


class PartSelect(Expr):
    """Constant part-select: ``var[msb:lsb]``."""

    _fields = ("target", "msb", "lsb")

    def __init__(self, target: Expr, msb: Expr, lsb: Expr):
        super().__init__()
        self.target = target
        self.msb = msb
        self.lsb = lsb


class Concat(Expr):
    _fields = ("parts",)

    def __init__(self, parts: list[Expr]):
        super().__init__()
        self.parts = parts


class Repeat_(Expr):
    """Replication: ``{count{value}}``."""

    _fields = ("count", "value")

    def __init__(self, count: Expr, value: Expr):
        super().__init__()
        self.count = count
        self.value = value


class FunctionCall(Expr):
    """Call of a user function or system function (``$time``)."""

    _fields = ("name", "args")

    def __init__(self, name: str, args: list[Expr]):
        super().__init__()
        self.name = name
        self.args = args


# ----------------------------------------------------------------------
# Sensitivity / event expressions
# ----------------------------------------------------------------------


class SensItem(Node):
    """One item in a sensitivity list.

    ``edge`` is ``"posedge"``, ``"negedge"``, ``"level"`` (any change to the
    named signal) or ``"all"`` (``@*``; ``signal`` is None).
    """

    _fields = ("edge", "signal")

    def __init__(self, edge: str, signal: Expr | None):
        super().__init__()
        self.edge = edge
        self.signal = signal


class SensList(Node):
    _fields = ("items",)

    def __init__(self, items: list[SensItem]):
        super().__init__()
        self.items = items


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


class Stmt(Node):
    """Base class for procedural statements."""


class Block(Stmt):
    """``begin ... end``, optionally named."""

    _fields = ("name", "stmts")

    def __init__(self, stmts: list[Stmt], name: str | None = None):
        super().__init__()
        self.stmts = stmts
        self.name = name


class BlockingAssign(Stmt):
    """``lhs = [#delay] rhs;``"""

    _fields = ("lhs", "rhs", "delay")

    def __init__(self, lhs: Expr, rhs: Expr, delay: Expr | None = None):
        super().__init__()
        self.lhs = lhs
        self.rhs = rhs
        self.delay = delay


class NonBlockingAssign(Stmt):
    """``lhs <= [#delay] rhs;``"""

    _fields = ("lhs", "rhs", "delay")

    def __init__(self, lhs: Expr, rhs: Expr, delay: Expr | None = None):
        super().__init__()
        self.lhs = lhs
        self.rhs = rhs
        self.delay = delay


class If(Stmt):
    _fields = ("cond", "then_stmt", "else_stmt")

    def __init__(self, cond: Expr, then_stmt: Stmt | None, else_stmt: Stmt | None = None):
        super().__init__()
        self.cond = cond
        self.then_stmt = then_stmt
        self.else_stmt = else_stmt


class CaseItem(Node):
    """One arm of a case statement; ``exprs`` empty means ``default``."""

    _fields = ("exprs", "stmt")

    def __init__(self, exprs: list[Expr], stmt: Stmt | None):
        super().__init__()
        self.exprs = exprs
        self.stmt = stmt


class Case(Stmt):
    """``case``/``casez``/``casex`` statement; ``kind`` holds the keyword."""

    _fields = ("kind", "expr", "items")

    def __init__(self, kind: str, expr: Expr, items: list[CaseItem]):
        super().__init__()
        self.kind = kind
        self.expr = expr
        self.items = items


class For(Stmt):
    _fields = ("init", "cond", "step", "body")

    def __init__(self, init: Stmt, cond: Expr, step: Stmt, body: Stmt | None):
        super().__init__()
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class While(Stmt):
    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt | None):
        super().__init__()
        self.cond = cond
        self.body = body


class RepeatStmt(Stmt):
    _fields = ("count", "body")

    def __init__(self, count: Expr, body: Stmt | None):
        super().__init__()
        self.count = count
        self.body = body


class Forever(Stmt):
    _fields = ("body",)

    def __init__(self, body: Stmt | None):
        super().__init__()
        self.body = body


class Wait(Stmt):
    """``wait (cond) stmt;``"""

    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt | None):
        super().__init__()
        self.cond = cond
        self.body = body


class DelayStmt(Stmt):
    """``#delay stmt`` — wait then run the (possibly null) statement."""

    _fields = ("delay", "body")

    def __init__(self, delay: Expr, body: Stmt | None):
        super().__init__()
        self.delay = delay
        self.body = body


class EventControl(Stmt):
    """``@(senslist) stmt`` — suspend until the event, then run body."""

    _fields = ("senslist", "body")

    def __init__(self, senslist: SensList, body: Stmt | None):
        super().__init__()
        self.senslist = senslist
        self.body = body


class EventTrigger(Stmt):
    """``-> event_name;``"""

    _fields = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class SysTaskCall(Stmt):
    """``$display(...)``, ``$finish``, ``$monitor``, ``$cirfix_record`` ..."""

    _fields = ("name", "args")

    def __init__(self, name: str, args: list[Expr]):
        super().__init__()
        self.name = name
        self.args = args


class NullStmt(Stmt):
    """A lone semicolon; also the result of a delete mutation."""

    _fields = ()


class Disable(Stmt):
    _fields = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class TaskCall(Stmt):
    """Call of a user-defined task: ``my_task(a, b);``"""

    _fields = ("name", "args")

    def __init__(self, name: str, args: list[Expr]):
        super().__init__()
        self.name = name
        self.args = args


# ----------------------------------------------------------------------
# Module items
# ----------------------------------------------------------------------


class ModuleItem(Node):
    """Base class for items directly inside a module body."""


class Decl(ModuleItem):
    """Declaration of one name.

    ``kind`` is one of ``input``, ``output``, ``inout``, ``wire``, ``reg``,
    ``integer``, ``real``, ``event``, ``parameter``, ``localparam``,
    ``genvar``.  ``output reg x`` produces two Decl entries merged by
    elaboration (an ``output`` and a ``reg`` with the same name); the parser
    emits a single Decl with ``kind='output'`` and ``reg_flag=True`` instead
    to keep round-tripping clean.
    """

    _fields = ("kind", "name", "msb", "lsb", "array_msb", "array_lsb", "init")
    _attrs = ("reg_flag", "signed")

    def __init__(
        self,
        kind: str,
        name: str,
        msb: Expr | None = None,
        lsb: Expr | None = None,
        init: Expr | None = None,
        array_msb: Expr | None = None,
        array_lsb: Expr | None = None,
        reg_flag: bool = False,
        signed: bool = False,
    ):
        super().__init__()
        self.kind = kind
        self.name = name
        self.msb = msb
        self.lsb = lsb
        self.init = init
        self.array_msb = array_msb
        self.array_lsb = array_lsb
        self.reg_flag = reg_flag
        self.signed = signed


class ContinuousAssign(ModuleItem):
    """``assign [#delay] lhs = rhs;``"""

    _fields = ("lhs", "rhs", "delay")

    def __init__(self, lhs: Expr, rhs: Expr, delay: Expr | None = None):
        super().__init__()
        self.lhs = lhs
        self.rhs = rhs
        self.delay = delay


class Always(ModuleItem):
    """``always @(senslist) stmt`` (``senslist`` None means plain ``always``)."""

    _fields = ("senslist", "body")

    def __init__(self, senslist: SensList | None, body: Stmt | None):
        super().__init__()
        self.senslist = senslist
        self.body = body


class Initial(ModuleItem):
    _fields = ("body",)

    def __init__(self, body: Stmt | None):
        super().__init__()
        self.body = body


class PortArg(Node):
    """One port connection in an instantiation.

    ``name`` is None for positional connections.
    """

    _fields = ("name", "expr")

    def __init__(self, name: str | None, expr: Expr | None):
        super().__init__()
        self.name = name
        self.expr = expr


class ParamArg(Node):
    """One parameter override in an instantiation (``#(.N(8))``)."""

    _fields = ("name", "expr")

    def __init__(self, name: str | None, expr: Expr):
        super().__init__()
        self.name = name
        self.expr = expr


class Instance(ModuleItem):
    """Module instantiation: ``mod #(.P(1)) inst (.a(x), .b(y));``"""

    _fields = ("module_name", "name", "params", "ports")

    def __init__(
        self,
        module_name: str,
        name: str,
        ports: list[PortArg],
        params: list[ParamArg] | None = None,
    ):
        super().__init__()
        self.module_name = module_name
        self.name = name
        self.ports = ports
        self.params = params or []


class FunctionDef(ModuleItem):
    """``function [msb:lsb] name; decls... body endfunction``"""

    _fields = ("name", "msb", "lsb", "decls", "body")

    def __init__(
        self,
        name: str,
        msb: Expr | None,
        lsb: Expr | None,
        decls: list[Decl],
        body: Stmt | None,
    ):
        super().__init__()
        self.name = name
        self.msb = msb
        self.lsb = lsb
        self.decls = decls
        self.body = body


class TaskDef(ModuleItem):
    _fields = ("name", "decls", "body")

    def __init__(self, name: str, decls: list[Decl], body: Stmt | None):
        super().__init__()
        self.name = name
        self.decls = decls
        self.body = body


class ModuleDef(Node):
    """A module definition.

    ``port_names`` preserves the header order for positional connections.
    Port direction/width details live in Decl items inside ``items``.
    """

    _fields = ("name", "items")
    _attrs = ("port_names",)

    def __init__(self, name: str, port_names: list[str], items: list[ModuleItem]):
        super().__init__()
        self.name = name
        self.port_names = port_names
        self.items = items

    def decls(self) -> list[Decl]:
        """All declaration items in this module, in source order."""
        return [item for item in self.items if isinstance(item, Decl)]

    def find_decl(self, name: str) -> Decl | None:
        """The declaration of ``name``, or None."""
        for decl in self.decls():
            if decl.name == name:
                return decl
        return None


class Source(Node):
    """A parsed source file: an ordered list of module definitions."""

    _fields = ("modules",)

    def __init__(self, modules: list[ModuleDef]):
        super().__init__()
        self.modules = modules

    def module(self, name: str) -> ModuleDef | None:
        """The module named ``name``, or None."""
        for mod in self.modules:
            if mod.name == name:
                return mod
        return None


# ----------------------------------------------------------------------
# Structural comparison
# ----------------------------------------------------------------------


def structural_diff(
    a: object, b: object, *, compare_ids: bool = False, _path: str = "root"
) -> str | None:
    """First structural difference between two trees, or None if equal.

    Compares node types, every ``_fields`` slot recursively, and the
    declared ``_attrs`` (semantic state that lives outside the child
    slots: literal planes, signedness, port order).  ``compare_ids=True``
    additionally requires matching ``node_id`` on every node — the
    contract the repair engine relies on after renumbering.

    The return value is a human-readable path to the mismatch, which the
    fuzz oracles surface verbatim in violation reports.
    """
    if isinstance(a, Node) or isinstance(b, Node):
        if type(a) is not type(b):
            return f"{_path}: {type(a).__name__} != {type(b).__name__}"
        assert isinstance(a, Node) and isinstance(b, Node)
        if compare_ids and a.node_id != b.node_id:
            return f"{_path}: node_id {a.node_id} != {b.node_id}"
        for name in a._fields + a._attrs:
            diff = structural_diff(
                getattr(a, name),
                getattr(b, name),
                compare_ids=compare_ids,
                _path=f"{_path}.{name}",
            )
            if diff is not None:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{_path}: list length {len(a)} != {len(b)}"
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            diff = structural_diff(
                item_a, item_b, compare_ids=compare_ids, _path=f"{_path}[{i}]"
            )
            if diff is not None:
                return diff
        return None
    if type(a) is not type(b) or a != b:
        return f"{_path}: {a!r} != {b!r}"
    return None


def structurally_equal(a: object, b: object, *, compare_ids: bool = False) -> bool:
    """True when :func:`structural_diff` finds no difference."""
    return structural_diff(a, b, compare_ids=compare_ids) is None
