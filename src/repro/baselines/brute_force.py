"""Brute-force repair baseline (paper §5.1).

The comparison algorithm the paper describes: "a more straightforward
search algorithm applying edits at uniform to a circuit design" — no fault
localization, no fix localization, no fitness-guided selection.  It samples
single- and multi-edit patches uniformly over *all* AST nodes and checks
each candidate against the testbench, stopping at the first plausible
repair or when the budget runs out.
"""

from __future__ import annotations

import random
import time as time_mod
from dataclasses import dataclass

from ..hdl import ast
from ..core.config import RepairConfig
from ..core.harness import shared_backend
from ..core.patch import Edit, Patch
from ..core.repair import CirFixEngine, RepairProblem


@dataclass
class BruteForceOutcome:
    """Result of one brute-force run."""

    plausible: bool
    patch: Patch
    fitness: float
    candidates_tried: int
    simulations: int
    elapsed_seconds: float


class BruteForceRepair:
    """Uniform random edit search with no localization or fitness guidance."""

    def __init__(
        self,
        problem: RepairProblem,
        config: RepairConfig | None = None,
        seed: int = 0,
        max_edits: int = 2,
    ):
        self.problem = problem
        self.config = config or RepairConfig()
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_edits = max_edits

    def _random_edit(self, tree: ast.Source) -> Edit | None:
        """A uniform GenProg-style edit: replace/insert/delete over all
        nodes.  Deliberately no repair templates and no localization — the
        paper's baseline applies "edits at uniform to a circuit design"."""
        nodes = [n for n in tree.walk() if n.node_id is not None]
        if not nodes:
            return None
        kind = self.rng.choice(("replace", "insert_after", "delete"))
        target = self.rng.choice(nodes)
        assert target.node_id is not None
        if kind == "delete":
            return Edit("delete", target.node_id)
        source = self.rng.choice(nodes)
        return Edit(kind, target.node_id, source.clone())

    def run(self) -> BruteForceOutcome:
        """Run the uniform random search until a repair or budget exhaustion.

        Every candidate is scored on one backend (the process pool when
        ``config.workers > 1``), which is closed before this returns.
        """
        with shared_backend(self.problem, self.config) as backend:
            # The engine serves purely as an evaluator (codegen → sim → fitness).
            engine = CirFixEngine(self.problem, self.config, self.seed, backend=backend)
            return self._search(engine)

    def _search(self, engine: CirFixEngine) -> BruteForceOutcome:
        start = time_mod.monotonic()
        deadline = start + self.config.max_wall_seconds
        best_fitness = engine.evaluate(Patch.empty()).fitness
        best_patch = Patch.empty()
        tried = 0
        while time_mod.monotonic() < deadline:
            if (
                self.config.max_fitness_evals is not None
                and engine.eval_sims >= self.config.max_fitness_evals
            ):
                break
            edits: list[Edit] = []
            tree = self.problem.design
            for _ in range(self.rng.randint(1, self.max_edits)):
                edit = self._random_edit(tree)
                if edit is not None:
                    edits.append(edit)
            if not edits:
                continue
            patch = Patch(edits)
            tried += 1
            evaluation = engine.evaluate(patch)
            if evaluation.fitness > best_fitness:
                best_fitness, best_patch = evaluation.fitness, patch
            if evaluation.is_plausible:
                return BruteForceOutcome(
                    True,
                    patch,
                    evaluation.fitness,
                    tried,
                    engine.eval_sims,
                    time_mod.monotonic() - start,
                )
        return BruteForceOutcome(
            False,
            best_patch,
            best_fitness,
            tried,
            engine.eval_sims,
            time_mod.monotonic() - start,
        )
