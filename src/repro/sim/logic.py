"""Four-state logic values for Verilog simulation.

A :class:`Value` is a fixed-width vector over {0, 1, x, z} using the VPI
two-integer encoding: for each bit position, the pair ``(a, b)`` of bits from
``aval``/``bval`` encodes::

    (0, 0) -> 0      (1, 0) -> 1      (0, 1) -> z      (1, 1) -> x

This representation makes bitwise operations integer-parallel and keeps x/z
tracking exact, which matters because the CirFix fitness function penalises
x/z bits with a dedicated weight φ.
"""

from __future__ import annotations

from typing import Iterator

_CHAR_FOR_PAIR = {(0, 0): "0", (1, 0): "1", (0, 1): "z", (1, 1): "x"}
_PAIR_FOR_CHAR = {"0": (0, 0), "1": (1, 0), "z": (0, 1), "x": (1, 1), "?": (0, 1)}

# Interning caches for the constants candidate evaluation churns through:
# every reg initialises to unknown(width), undriven wires to high_z(width),
# and comparisons/conditions produce 0/1 constantly.  Values are immutable
# (every operation returns a fresh instance), so sharing is safe.  Only
# unsigned values are cached, and only up to a width cap so a pathological
# mutant writing huge part-selects cannot grow the caches without bound.
_INTERN_MAX_WIDTH = 4096
_ZERO_CACHE: dict[int, "Value"] = {}
_ONE_CACHE: dict[int, "Value"] = {}
_UNKNOWN_CACHE: dict[int, "Value"] = {}
_HIGH_Z_CACHE: dict[int, "Value"] = {}


class Value:
    """An immutable four-state bit vector.

    Attributes:
        width: Number of bits (>= 1).
        aval: "a" plane bits (see module docstring).
        bval: "b" plane bits; a set bit marks x or z at that position.
        signed: Whether the vector is interpreted as two's complement by
            arithmetic and comparison operators.
    """

    __slots__ = ("width", "aval", "bval", "signed")

    #: Hard ceiling on any runtime value width.  Mutated designs can write
    #: part-selects like ``a[30'h3FFFFFFF:0]``; without a cap the bit masks
    #: for such widths exhaust memory.
    MAX_WIDTH = 1 << 20

    def __init__(self, width: int, aval: int, bval: int = 0, signed: bool = False):
        if width < 1:
            raise ValueError(f"value width must be >= 1, got {width}")
        if width > Value.MAX_WIDTH:
            raise ValueError(f"value width {width} exceeds the {Value.MAX_WIDTH}-bit cap")
        mask = (1 << width) - 1
        self.width = width
        self.aval = aval & mask
        self.bval = bval & mask
        self.signed = signed

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_int(value: int, width: int = 32, signed: bool = False) -> "Value":
        """Build a fully-defined value from a Python int (wraps to width).

        The all-zero and one constants are interned per width (unsigned
        only), since they dominate the values produced while evaluating
        repair candidates.
        """
        masked = value & ((1 << width) - 1)
        if not signed and 1 <= width <= _INTERN_MAX_WIDTH and masked <= 1:
            cache = _ONE_CACHE if masked else _ZERO_CACHE
            cached = cache.get(width)
            if cached is None:
                cached = cache[width] = Value(width, masked, 0, False)
            return cached
        return Value(width, masked, 0, signed)

    @staticmethod
    def unknown(width: int) -> "Value":
        """All bits x (the initial state of a reg); interned per width."""
        cached = _UNKNOWN_CACHE.get(width)
        if cached is None:
            mask = (1 << width) - 1
            cached = Value(width, mask, mask)
            if width <= _INTERN_MAX_WIDTH:
                _UNKNOWN_CACHE[width] = cached
        return cached

    @staticmethod
    def high_z(width: int) -> "Value":
        """All bits z (the state of an undriven wire); interned per width."""
        cached = _HIGH_Z_CACHE.get(width)
        if cached is None:
            cached = Value(width, 0, (1 << width) - 1)
            if width <= _INTERN_MAX_WIDTH:
                _HIGH_Z_CACHE[width] = cached
        return cached

    @staticmethod
    def from_string(text: str, signed: bool = False) -> "Value":
        """Parse a bit-string like ``"10xz"`` (MSB first)."""
        if not text:
            raise ValueError("empty bit string")
        aval = bval = 0
        for ch in text.lower():
            pair = _PAIR_FOR_CHAR.get(ch)
            if pair is None:
                raise ValueError(f"invalid bit character {ch!r}")
            aval = (aval << 1) | pair[0]
            bval = (bval << 1) | pair[1]
        return Value(len(text), aval, bval, signed)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def is_fully_defined(self) -> bool:
        """True when no bit is x or z."""
        return self.bval == 0

    @property
    def has_x_or_z(self) -> bool:
        return self.bval != 0

    def to_int(self) -> int:
        """Interpret as an integer; x/z bits read as 0 (like $unsigned)."""
        value = self.aval & ~self.bval
        if self.signed and self.width > 0 and (value >> (self.width - 1)) & 1:
            value -= 1 << self.width
        return value

    def to_signed_int(self) -> int:
        """Two's-complement interpretation regardless of the signed flag."""
        value = self.aval & ~self.bval
        if (value >> (self.width - 1)) & 1:
            value -= 1 << self.width
        return value

    def bit(self, index: int) -> str:
        """Return the bit at ``index`` (LSB = 0) as one of '0','1','x','z'."""
        if not 0 <= index < self.width:
            return "x"
        pair = ((self.aval >> index) & 1, (self.bval >> index) & 1)
        return _CHAR_FOR_PAIR[pair]

    def bits(self) -> Iterator[str]:
        """Yield bits LSB-first."""
        for i in range(self.width):
            yield self.bit(i)

    def to_bit_string(self) -> str:
        """Render MSB-first, e.g. ``"10xz"`` (used by traces and %b)."""
        return "".join(self.bit(i) for i in range(self.width - 1, -1, -1))

    def to_decimal_string(self) -> str:
        """Render like %0d: 'x'/'z' when any bit is unknown."""
        if self.bval:
            all_mask = (1 << self.width) - 1
            if self.bval == all_mask and self.aval == all_mask:
                return "x"
            if self.bval == all_mask and self.aval == 0:
                return "z"
            return "X"
        return str(self.to_int() if self.signed else self.aval)

    def to_hex_string(self) -> str:
        """Render like %h, with per-nibble x/z collapsing."""
        digits = []
        for start in range(0, self.width, 4):
            a = (self.aval >> start) & 0xF
            b = (self.bval >> start) & 0xF
            if b == 0:
                digits.append(f"{a:x}")
            elif b == 0xF and a == 0xF:
                digits.append("x")
            elif b == 0xF and a == 0:
                digits.append("z")
            else:
                digits.append("X")
        return "".join(reversed(digits))

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def resized(self, width: int, signed: bool | None = None) -> "Value":
        """Zero/sign/x-extend or truncate to ``width``.

        A value that already has the width and signedness is returned
        itself (values are immutable, so sharing is safe)."""
        signed_out = self.signed if signed is None else signed
        if width == self.width:
            if signed_out == self.signed:
                return self
            return Value(width, self.aval, self.bval, signed_out)
        if width < self.width:
            return Value(width, self.aval, self.bval, signed_out)
        ext_mask = ((1 << width) - 1) ^ ((1 << self.width) - 1)
        aval, bval = self.aval, self.bval
        msb = self.width - 1
        msb_pair = ((aval >> msb) & 1, (bval >> msb) & 1)
        if msb_pair == (1, 1):  # x extends as x
            aval |= ext_mask
            bval |= ext_mask
        elif msb_pair == (0, 1):  # z extends as z
            bval |= ext_mask
        elif self.signed and msb_pair == (1, 0):  # sign extension
            aval |= ext_mask
        return Value(width, aval, bval, signed_out)

    def select_bit(self, index: int) -> "Value":
        """Extract one bit; out-of-range reads return x."""
        if not 0 <= index < self.width:
            return Value.unknown(1)
        return Value(1, (self.aval >> index) & 1, (self.bval >> index) & 1)

    def select_range(self, msb: int, lsb: int) -> "Value":
        """Extract bits [msb:lsb] (msb >= lsb); out-of-range bits are x."""
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        if lsb < 0 or msb >= self.width:
            out = Value.unknown(width)
            # Copy the in-range part.
            aval = bval = 0
            for i in range(width):
                src = lsb + i
                if 0 <= src < self.width:
                    aval |= ((self.aval >> src) & 1) << i
                    bval |= ((self.bval >> src) & 1) << i
                else:
                    aval |= 1 << i
                    bval |= 1 << i
            return Value(width, aval, bval)
        return Value(width, self.aval >> lsb, self.bval >> lsb)

    def with_bits(self, msb: int, lsb: int, replacement: "Value") -> "Value":
        """Return a copy with bits [msb:lsb] replaced (for part assignments)."""
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        rep = replacement.resized(width)
        keep_mask = ((1 << self.width) - 1) ^ (((1 << width) - 1) << lsb)
        aval = (self.aval & keep_mask) | ((rep.aval & ((1 << width) - 1)) << lsb)
        bval = (self.bval & keep_mask) | ((rep.bval & ((1 << width) - 1)) << lsb)
        return Value(self.width, aval, bval, self.signed)

    def concat(self, other: "Value") -> "Value":
        """Concatenate with ``other`` as the low part: {self, other}."""
        return Value(
            self.width + other.width,
            (self.aval << other.width) | other.aval,
            (self.bval << other.width) | other.bval,
        )

    # ------------------------------------------------------------------
    # Comparison / hashing
    # ------------------------------------------------------------------

    def same_state(self, other: "Value") -> bool:
        """Exact 4-state equality (the === operator), width-extended."""
        width = max(self.width, other.width)
        a, b = self.resized(width), other.resized(width)
        return a.aval == b.aval and a.bval == b.bval

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (
            self.width == other.width
            and self.aval == other.aval
            and self.bval == other.bval
        )

    def __hash__(self) -> int:
        return hash((self.width, self.aval, self.bval))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Value({self.width}'b{self.to_bit_string()})"


def truthiness(value: Value) -> str:
    """Classify a value for conditional evaluation.

    Returns ``"true"`` when any bit is a definite 1, ``"false"`` when all
    bits are definite 0, otherwise ``"x"`` (IEEE: an if-condition that is
    x/z takes the false branch).
    """
    known_ones = value.aval & ~value.bval
    if known_ones:
        return "true"
    if value.bval == 0:
        return "false"
    return "x"
