"""Differential checks for the index-driven operators and edit-sized
``Patch.apply``, installed around a running trial.

:class:`EditPathChecks` wraps the GP loop's operators and ``Patch.apply``
while it is active:

- every child :func:`repro.core.operators.mutate`,
  :func:`~repro.core.operators.apply_fix_pattern` and
  :func:`~repro.core.operators.crossover` make must equal the child the
  walking operators of ``reference_operators.py`` make from the same RNG
  state, and both must leave the RNG in the same state;
- Algorithm 2, answered from the variant index the operators share,
  must return the fault set of the round-by-round fixed point in
  ``reference_faultloc.py``;
- every application that starts from a prefix patch's tree must equal
  the full application of the same edits from the design, and every
  application the clone-then-edit apply of ``reference_apply.py``, ids
  included;
- every tree ``Patch.apply`` returns must carry each node id once (a
  located rewrite and ``find`` pick the same node only then);
- every exact candidate :meth:`~repro.core.harness.EngineHarness._lookup`
  hands a backend must be the tree that a pool worker makes of it: its
  edit list, through a pickle round trip, applied from the design's
  index equals the engine's tree, ids included.

``tests/core/test_variant.py`` runs it on a GP and a synth trial, and the
"each edit costs its path" step of ``scripts/check_all.sh`` on every
Table-3 scenario.
"""

from __future__ import annotations

import importlib
import pickle
import random
from collections import Counter

from repro.core.patch import Patch
from repro.core.variant import VariantIndex
from repro.hdl import ast, structural_diff

from . import reference_faultloc
from . import reference_operators as reference
from .reference_apply import reference_apply

# The modules, not the functions of the same names the package exports.
repair_module = importlib.import_module("repro.core.repair")
harness_module = importlib.import_module("repro.core.harness")


def edits_differ(child: Patch, expected: Patch) -> str | None:
    """How two operator children differ (None when they are the same edits)."""
    if len(child.edits) != len(expected.edits):
        return f"{child.describe()} != {expected.describe()}"
    for got, want in zip(child.edits, expected.edits):
        if (got.kind, got.target_id, got.template) != (want.kind, want.target_id, want.template):
            return f"{got.describe()} != {want.describe()}"
        if (got.payload is None) != (want.payload is None):
            return f"{got.describe()}: payload presence differs"
        if got.payload is not None:
            diff = structural_diff(got.payload, want.payload, compare_ids=True)
            if diff is not None:
                return f"{got.describe()}: payload {diff}"
    return None


def duplicate_ids(tree: ast.Node) -> list[int]:
    """The node ids that occur more than once in ``tree``."""
    counts = Counter(node.node_id for node in tree.walk() if node.node_id is not None)
    return sorted(node_id for node_id, count in counts.items() if count > 1)


class EditPathChecks:
    """Context manager: check operators and applications while active.

    Violations are collected in :attr:`failures`; :attr:`counts` says how
    many operator calls, applications and incremental applications were
    checked.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "EditPathChecks":
        for name, rng_at in (("mutate", 3), ("apply_fix_pattern", 3), ("crossover", 2)):
            self._patch(repair_module, name, self._operator(
                name, getattr(repair_module, name), getattr(reference, name), rng_at
            ))
        self._patch(harness_module.EngineHarness, "_lookup", self._lookup(
            harness_module.EngineHarness._lookup, Patch.apply
        ))
        self._patch(Patch, "apply", self._apply(Patch.apply))
        self._patch(harness_module, "localize_faults", self._localize(
            harness_module.localize_faults
        ))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _operator(self, name, real, walking, rng_at):
        def run(*args, **kwargs):
            rng = args[rng_at]
            shadow = random.Random()
            shadow.setstate(rng.getstate())
            shadow_args = list(args)
            shadow_args[rng_at] = shadow
            expected = walking(*shadow_args, **kwargs)
            result = real(*args, **kwargs)
            self.counts[name] += 1
            if rng.getstate() != shadow.getstate():
                self.failures.append(f"{name}: the RNG was drawn differently")
            pairs = zip(result, expected) if name == "crossover" else [(result, expected)]
            for child, want in pairs:
                parents = args[:2] if name == "crossover" else args[:1]
                if any(child is p for p in parents) != any(want is p for p in parents):
                    self.failures.append(f"{name}: neutral child differs")
                    continue
                diff = edits_differ(child, want)
                if diff is not None:
                    self.failures.append(f"{name}: {diff}")
            return result

        return run

    def _localize(self, real):
        def localize(index, mismatch, *args):
            result = real(index, mismatch, *args)
            self.counts["localizations"] += 1
            tree = index.root if isinstance(index, VariantIndex) else index
            want = reference_faultloc.localize_faults(tree, mismatch, *args)
            if (result.nodes, result.mismatch, result.iterations) != (
                want.nodes, want.mismatch, want.iterations
            ):
                self.failures.append(f"localize_faults{sorted(mismatch)}: fault sets differ")
            return result

        return localize

    def _lookup(self, real, real_apply):
        def lookup(engine, patch):
            candidate, known = real(engine, patch)
            if isinstance(candidate, tuple):
                self.counts["exact"] += 1
                _, tree, edits = candidate
                shipped = pickle.loads(pickle.dumps(list(edits)))
                problem = engine.problem
                # As a pool worker applies it: from the design's index,
                # fresh ids above the index's largest.
                worker_tree = real_apply(Patch(shipped), problem.design_index)
                diff = structural_diff(worker_tree, tree, compare_ids=True)
                if diff is not None:
                    self.failures.append(
                        f"{patch.describe()}: shipped edits != engine tree: {diff}"
                    )
            return candidate, known

        return lookup

    def _apply(self, real):
        def apply(patch, base):
            prefix = patch.__dict__.get("_prefix")
            tree = real(patch, base)
            self.counts["applications"] += 1
            root = base.root if isinstance(base, VariantIndex) else base
            diff = structural_diff(tree, reference_apply(patch, root), compare_ids=True)
            if diff is not None:
                self.failures.append(f"{patch.describe()}: != clone-then-edit apply: {diff}")
            duplicates = duplicate_ids(tree)
            if duplicates:
                self.failures.append(f"{patch.describe()}: duplicate ids {duplicates[:5]}")
            memo = getattr(prefix, "_applied", None)
            index = getattr(prefix, "_index", None)
            if memo is not None and index is not None and index.root is memo[1]:
                self.counts["incremental"] += 1
                full = real(Patch(list(patch.edits)), base)
                diff = structural_diff(tree, full, compare_ids=True)
                if diff is not None:
                    self.failures.append(
                        f"{patch.describe()}: incremental != full application: {diff}"
                    )
            return tree

        return apply
