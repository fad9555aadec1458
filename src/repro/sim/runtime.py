"""Runtime objects: signals, memories, named events, module instances.

These are the elaborated counterparts of AST declarations.  A
:class:`Signal` holds a 4-state :class:`~repro.sim.logic.Value` and notifies
waiters on changes; edge detection follows IEEE 1364 (posedge = any
transition towards 1 or away from 0 on the LSB).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..hdl import ast
from .logic import Value

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


def _edge_table() -> tuple[frozenset[str], ...]:
    """Edges a change of the LSB fires, indexed by its two planes.

    The index is ``old_a << 3 | old_b << 2 | new_a << 1 | new_b`` over the
    LSB's (aval, bval) bits.  Per IEEE 1364, posedge is 0->1, 0->x/z and
    x/z->1; negedge is the dual.  Every change also fires ``level``
    waiters, even one that leaves the LSB alone.
    """
    chars = {(0, 0): "0", (1, 0): "1", (0, 1): "z", (1, 1): "x"}
    table = []
    for index in range(16):
        old = chars[(index >> 3) & 1, (index >> 2) & 1]
        new = chars[(index >> 1) & 1, index & 1]
        if old == new:
            edge = None
        elif old == "0" or (old in "xz" and new == "1"):
            edge = "posedge"
        elif old == "1" or new == "0":
            edge = "negedge"
        else:  # x <-> z
            edge = None
        table.append(frozenset({"level", edge} - {None}))
    return tuple(table)


#: LSB planes → the edges a value change fires (see :func:`_edge_table`).
EDGES = _edge_table()


class Signal:
    """A scalar or vector net/variable.

    Attributes:
        name: Declared name (per-instance, not hierarchical).
        width: Bit width.
        kind: ``wire``, ``reg``, ``integer``, ``time``, or ``real``.
        value: Current 4-state value.
    """

    __slots__ = ("name", "width", "kind", "signed", "value", "_waiters", "_subscribers")

    def __init__(self, name: str, width: int, kind: str, signed: bool = False):
        self.name = name
        self.width = width
        self.kind = kind
        self.signed = signed
        if kind == "wire":
            self.value = Value.high_z(width)
        elif kind in ("integer", "time"):
            self.value = Value.unknown(width)
        else:
            self.value = Value.unknown(width)
        if signed:
            self.value = Value(width, self.value.aval, self.value.bval, True)
        # One-shot waiters: (edge, callback).  Edge is 'posedge', 'negedge',
        # or 'level'.  Callbacks fire at most once, then are discarded.
        self._waiters: list[tuple[str, Callable[[], None]]] = []
        # Persistent subscribers (continuous assignments): called on every
        # value change.
        self._subscribers: list[Callable[[], None]] = []

    def add_waiter(self, edge: str, callback: Callable[[], None]) -> None:
        """Register a one-shot waiter for the given edge."""
        self._waiters.append((edge, callback))

    def remove_waiter(self, callback: Callable[[], None]) -> None:
        """Drop a previously registered one-shot waiter (if still present)."""
        self._waiters = [(e, cb) for e, cb in self._waiters if cb is not callback]

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a persistent change subscriber."""
        self._subscribers.append(callback)

    def close(self) -> None:
        """Drop every waiter and subscriber (see :meth:`Simulator.close`)."""
        self._waiters = []
        self._subscribers = []

    def set_value(self, new: Value, sim: "Simulator") -> None:
        """Update the value, firing edge waiters and subscribers on change.

        Fired waiters, then subscribers, go straight onto the scheduler's
        active queue in registration order."""
        if new.width != self.width or new.signed != self.signed:
            new = new.resized(self.width, self.signed)
        old = self.value
        if old.aval == new.aval and old.bval == new.bval:
            return
        self.value = new
        active = sim.scheduler.active
        if self._waiters:
            edges = EDGES[
                (old.aval & 1) << 3 | (old.bval & 1) << 2 | (new.aval & 1) << 1 | (new.bval & 1)
            ]
            kept = []
            for waiter in self._waiters:
                if waiter[0] in edges:
                    active.append(waiter[1])
                else:
                    kept.append(waiter)
            self._waiters = kept
        if self._subscribers:
            active.extend(self._subscribers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name}={self.value.to_bit_string()})"


class NamedEvent:
    """A declared ``event``; triggering wakes all current waiters."""

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str):
        self.name = name
        self._waiters: list[Callable[[], None]] = []

    def add_waiter(self, callback: Callable[[], None]) -> None:
        """Register a one-shot waiter."""
        self._waiters.append(callback)

    def remove_waiter(self, callback: Callable[[], None]) -> None:
        """Drop a previously registered waiter."""
        self._waiters = [cb for cb in self._waiters if cb is not callback]

    def close(self) -> None:
        """Drop every waiter (see :meth:`Simulator.close`)."""
        self._waiters = []

    def trigger(self, sim: "Simulator") -> None:
        """Wake every current waiter (-> event)."""
        fired, self._waiters = self._waiters, []
        for cb in fired:
            sim.scheduler.schedule_active(cb)


class Memory:
    """A reg array (``reg [7:0] mem [0:255]``).

    Words default to all-x.  Any word write counts as a change of the whole
    memory for level-sensitivity purposes.
    """

    __slots__ = ("name", "word_width", "lo", "hi", "words", "_waiters", "_subscribers", "signed")

    def __init__(self, name: str, word_width: int, lo: int, hi: int, signed: bool = False):
        if lo > hi:
            lo, hi = hi, lo
        self.name = name
        self.word_width = word_width
        self.lo = lo
        self.hi = hi
        self.signed = signed
        self.words: dict[int, Value] = {}
        self._waiters: list[tuple[str, Callable[[], None]]] = []
        self._subscribers: list[Callable[[], None]] = []

    def read(self, index: int) -> Value:
        """Word at ``index``; out-of-range reads return all-x."""
        if index < self.lo or index > self.hi:
            return Value.unknown(self.word_width)
        return self.words.get(index, Value.unknown(self.word_width))

    def write(self, index: int, value: Value, sim: "Simulator") -> None:
        """Write a word, notifying subscribers and level waiters on change."""
        if index < self.lo or index > self.hi:
            return
        new = value
        if new.width != self.word_width or new.signed != self.signed:
            new = new.resized(self.word_width, self.signed)
        old = self.words.get(index)
        if old is None:
            old = Value.unknown(self.word_width)
        if old.aval == new.aval and old.bval == new.bval:
            return
        self.words[index] = new
        active = sim.scheduler.active
        if self._subscribers:
            active.extend(self._subscribers)
        if self._waiters:
            kept = []
            for waiter in self._waiters:
                if waiter[0] == "level":
                    active.append(waiter[1])
                else:
                    kept.append(waiter)
            self._waiters = kept

    def add_waiter(self, edge: str, callback: Callable[[], None]) -> None:
        """Register a one-shot waiter (level sensitivity)."""
        self._waiters.append((edge, callback))

    def remove_waiter(self, callback: Callable[[], None]) -> None:
        """Drop a previously registered waiter."""
        self._waiters = [(e, cb) for e, cb in self._waiters if cb is not callback]

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a persistent change subscriber."""
        self._subscribers.append(callback)

    def close(self) -> None:
        """Drop every waiter and subscriber (see :meth:`Simulator.close`)."""
        self._waiters = []
        self._subscribers = []


class Instance:
    """An elaborated module instance (one node of the design hierarchy)."""

    def __init__(self, name: str, module: ast.ModuleDef, parent: "Instance | None" = None):
        self.name = name
        self.module = module
        self.parent = parent
        self.signals: dict[str, Signal] = {}
        self.memories: dict[str, Memory] = {}
        self.events: dict[str, NamedEvent] = {}
        self.params: dict[str, Value] = {}
        self.functions: dict[str, ast.FunctionDef] = {}
        self.tasks: dict[str, ast.TaskDef] = {}
        self.children: dict[str, Instance] = {}
        #: Port directions for connection checking: name -> 'input'/'output'/'inout'.
        self.port_directions: dict[str, str] = {}

    @property
    def path(self) -> str:
        """Hierarchical path, e.g. ``testbench.dut``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def lookup(self, name: str) -> Signal | Memory | NamedEvent | Value | None:
        """Resolve a simple name within this instance."""
        if name in self.signals:
            return self.signals[name]
        if name in self.memories:
            return self.memories[name]
        if name in self.events:
            return self.events[name]
        if name in self.params:
            return self.params[name]
        return None

    def close(self) -> None:
        """Close this subtree's signals, memories and events, and drop the
        links to its children (see :meth:`Simulator.close`)."""
        for table in (self.signals, self.memories, self.events):
            for waitable in table.values():
                waitable.close()
        for child in self.children.values():
            child.close()
        self.children = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Instance({self.path}: {self.module.name})"
