"""Brute-force bit-vector solving for template free choices.

rtl-repair hands each template's free constants to an SMT solver; here
the same role is played by deterministic enumeration — "solving" a
template means building the small domain its free choice ranges over and
letting the harness score the surviving instantiations through the
:class:`~repro.core.backend.EvaluationBackend` (so caching,
supervision, and telemetry all apply unchanged).

Two pieces of the testbench trace feed the domains:

- :func:`mine_literals` collects every distinct 4-state value the oracle
  expects on the mismatched outputs — if a constant somewhere in the
  design is wrong, the right value is very often one the oracle itself
  demands at some timestep;
- :func:`literal_domain` combines that pool with the classic
  neighbourhood of the existing literal (off-by-one, zero, one,
  all-ones) and, for narrow literals, the *entire* 4-state-free value
  range — brute force is exact when the bit-vector is small.

Everything is deterministic: domains are built in a fixed order, deduped
by value, and capped, so the same scenario always enumerates the same
candidates in the same order (the engine's bit-identical-outcome
contract).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl import ast
from ..instrument.trace import SimulationTrace

#: Enumerate every value of a literal this narrow (2^4 = 16 candidates).
EXHAUSTIVE_WIDTH = 4

#: Cap on oracle-mined literal values kept in the pool.
MAX_MINED = 16

#: Cap on candidate instantiations a template may emit per site.
MAX_PER_SITE = 24


@dataclass(frozen=True)
class SolveContext:
    """Everything a template needs to enumerate and solve its sites.

    Attributes:
        fault_scope: Node ids inside fault-localized statements (empty
            set = localization unavailable; templates then consider every
            site).
        mismatch: Output names whose baseline trace disagrees with the
            oracle, sorted.
        literal_pool: Distinct ``(aval, bval)`` values mined from the
            oracle on the mismatched outputs, in first-seen order.
        suspect_names: Signal names implicated by localization (the
            mismatched outputs plus every identifier inside a localized
            statement) — lets declaration-level sites (e.g. a wrong
            vector width) inherit blame even though declarations are
            not statements.
        max_per_site: Candidate cap per site (deterministic truncation).
    """

    fault_scope: frozenset[int] = frozenset()
    mismatch: tuple[str, ...] = ()
    literal_pool: tuple[tuple[int, int], ...] = ()
    suspect_names: tuple[str, ...] = ()
    max_per_site: int = MAX_PER_SITE

    def covers(self, node_id: int | None) -> bool:
        """Whether a site is inside the localized fault region."""
        if node_id is None:
            return False
        if not self.fault_scope:
            return True
        return node_id in self.fault_scope


def mine_literals(
    oracle: SimulationTrace, mismatch: "set[str] | frozenset[str]"
) -> tuple[tuple[int, int], ...]:
    """Distinct oracle values on the mismatched outputs, first-seen order.

    Falls back to every recorded output when ``mismatch`` is empty (the
    baseline produced no mismatch summary), and keeps 4-state values — an
    expected ``x``/``z`` plane is as solvable as a two-state constant.
    """
    pool: dict[tuple[int, int], None] = {}
    for _, values in oracle.rows:
        for var in sorted(values):
            if mismatch and var not in mismatch:
                continue
            value = values[var]
            pool.setdefault((value.aval, value.bval))
            if len(pool) >= MAX_MINED:
                return tuple(pool)
    return tuple(pool)


def number_from_planes(width: int | None, aval: int, bval: int) -> ast.Number:
    """Build a literal node from VPI planes (4-state safe).

    Two-state values render as plain sized decimals; values with an
    x/z plane render as based binary so codegen round-trips them.
    """
    if bval == 0:
        return ast.Number.from_int(aval, width)
    w = width if width is not None else max(aval.bit_length(), bval.bit_length(), 1)
    bits = []
    for i in range(w - 1, -1, -1):
        a = (aval >> i) & 1
        b = (bval >> i) & 1
        bits.append({(0, 0): "0", (1, 0): "1", (0, 1): "z", (1, 1): "x"}[(a, b)])
    text = f"{w}'b{''.join(bits)}"
    return ast.Number(text, w, aval, bval)


def literal_domain(number: ast.Number, ctx: SolveContext) -> list[ast.Number]:
    """The replacement values to try for one literal, in solve order.

    Order: oracle-mined values first (most likely to be the demanded
    constant), then the off-by-one neighbourhood, zero/one/all-ones,
    then — for literals of width ≤ ``EXHAUSTIVE_WIDTH`` — every
    remaining two-state value.  The current value is excluded and the
    list is deduped and capped at ``ctx.max_per_site``.
    """
    width = number.width
    mask = (1 << width) - 1 if width is not None else None

    def clip(value: int) -> int:
        return value & mask if mask is not None else value

    seen: dict[tuple[int, int], None] = {(number.aval, number.bval): None}
    domain: list[ast.Number] = []

    def admit(aval: int, bval: int = 0) -> None:
        if len(domain) >= ctx.max_per_site:
            return
        if aval < 0:
            return
        key = (aval, bval)
        if key in seen:
            return
        seen[key] = None
        domain.append(number_from_planes(width, aval, bval))

    for aval, bval in ctx.literal_pool:
        if mask is not None:
            aval, bval = aval & mask, bval & mask
        admit(aval, bval)
    if number.bval == 0:
        admit(clip(number.aval + 1))
        if number.aval > 0:
            admit(number.aval - 1)
    admit(0)
    admit(1)
    if mask is not None:
        admit(mask)
    if width is not None and width <= EXHAUSTIVE_WIDTH:
        for value in range(1 << width):
            admit(value)
    return domain


__all__ = [
    "EXHAUSTIVE_WIDTH",
    "MAX_MINED",
    "MAX_PER_SITE",
    "SolveContext",
    "literal_domain",
    "mine_literals",
    "number_from_planes",
]
