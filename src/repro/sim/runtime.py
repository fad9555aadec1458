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

#: Edge classification table: (old_lsb, new_lsb) -> set of edges produced.
#: Per IEEE 1364: posedge is 0->1, 0->x/z, x/z->1; negedge is the dual.
def _edges(old: str, new: str) -> tuple[str, ...]:
    if old == new:
        return ()
    if old == "0":
        return ("posedge",) if new == "1" else ("posedge",)
    if old == "1":
        return ("negedge",)
    # old is x/z
    if new == "1":
        return ("posedge",)
    if new == "0":
        return ("negedge",)
    return ()


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

    def set_value(self, new: Value, sim: "Simulator") -> None:
        """Update the value, firing edge waiters and subscribers on change."""
        new = new.resized(self.width, self.signed)
        old = self.value
        if old.aval == new.aval and old.bval == new.bval:
            return
        self.value = new
        edges = set(_edges(old.bit(0), new.bit(0)))
        edges.add("level")
        if self._waiters:
            fired = [cb for edge, cb in self._waiters if edge in edges]
            if fired:
                self._waiters = [
                    (edge, cb) for edge, cb in self._waiters if edge not in edges
                ]
                for cb in fired:
                    sim.scheduler.schedule_active(cb)
        for cb in self._subscribers:
            sim.scheduler.schedule_active(cb)

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
        new = value.resized(self.word_width, self.signed)
        old = self.read(index)
        if old.aval == new.aval and old.bval == new.bval:
            return
        self.words[index] = new
        for cb in self._subscribers:
            sim.scheduler.schedule_active(cb)
        if self._waiters:
            fired = [cb for edge, cb in self._waiters if edge == "level"]
            self._waiters = [(e, cb) for e, cb in self._waiters if e != "level"]
            for cb in fired:
                sim.scheduler.schedule_active(cb)

    def add_waiter(self, edge: str, callback: Callable[[], None]) -> None:
        """Register a one-shot waiter (level sensitivity)."""
        self._waiters.append((edge, callback))

    def remove_waiter(self, callback: Callable[[], None]) -> None:
        """Drop a previously registered waiter."""
        self._waiters = [(e, cb) for e, cb in self._waiters if cb is not callback]

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a persistent change subscriber."""
        self._subscribers.append(callback)


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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Instance({self.path}: {self.module.name})"
