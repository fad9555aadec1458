"""The CirFix repair engine (paper §3, Algorithm 1).

Genetic-programming search over repair patches:

1. seed a population of empty patches (copies of the faulty design);
2. each reproduction step selects a parent by tournament, re-runs fault
   localization on *that parent's* own simulation trace (the paper
   re-localizes per variant to support dependent multi-edit repairs), and
   produces children via a repair template (probability ``rtThreshold``),
   mutation (``mutThreshold``), or single-point crossover;
3. stop when a candidate reaches fitness 1.0 (plausible repair) or
   resources run out; minimize the winning patch with delta debugging.

Every candidate evaluation regenerates Verilog source from the patched AST
(the candidate's identity), appends the pre-parsed testbench, compiles,
and simulates — mirroring the original pipeline (PyVerilog codegen → VCS
simulation), with our own frontend and simulator standing in for both.
Both backends compile the patched tree, which equals the parse of its
text: the serial backend the engine's own tree, a pool worker the tree
it makes by applying the patch's edit list to the design.  Only a
candidate whose tree strict codegen cannot print faithfully is scored
from its parsed text.

The engine runs **generate-then-evaluate-batch**: each generation's
children are produced first (selection uses the previous generation's
already-known fitnesses, preserving Algorithm 1), then the whole batch is
scored through an :class:`~repro.core.backend.EvaluationBackend` — serially
by default, or on a persistent process pool with ``config.workers > 1``.
Work is assigned in child-index order so outcomes are seed-deterministic
regardless of backend (see ``docs/repair_engine.md``).

The engine-neutral machinery (the trial skeleton and the multi-seed
trial loop, candidate evaluation, batched backend scoring, localization,
minimization, outcome assembly) lives in
:mod:`repro.core.harness`; this module holds only how GP proposes each
generation.  ``RepairOutcome``, ``RepairProblem``, and
``adaptive_chunk_size`` are re-exported here for compatibility.
"""

from __future__ import annotations

import logging
import random
from typing import Callable, Sequence

from ..obs.observer import RepairObserver
from .backend import CandidateResult, EvaluationBackend
from .config import RepairConfig
from .harness import (  # noqa: F401  (re-exported for compatibility)
    EngineHarness,
    RepairOutcome,
    RepairProblem,
    adaptive_chunk_size,
    best_outcome,
    run_trials,
)
from .operators import apply_fix_pattern, crossover, mutate
from .patch import Patch
from .selection import elite, tournament_select

#: Engine progress log (the artifact's ``repair_logs``): enable with
#: ``logging.getLogger("repro.repair").setLevel(logging.INFO)``.
logger = logging.getLogger("repro.repair")


class CirFixEngine(EngineHarness):
    """Runs Algorithm 1 for one defect scenario and one random seed."""

    def __init__(
        self,
        problem: RepairProblem,
        config: RepairConfig | None = None,
        seed: int = 0,
        backend: EvaluationBackend | None = None,
        observers: Sequence[RepairObserver] | None = None,
        cancel: Callable[[], bool] | None = None,
    ):
        super().__init__(
            problem, config, seed, backend=backend, observers=observers,
            cancel=cancel,
        )
        self.rng = random.Random(seed)
        #: How often each reproduction path ran (diagnostics).
        self.operator_stats = {"template": 0, "mutation": 0, "crossover": 0}

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1)
    # ------------------------------------------------------------------

    def _started(self, fitness: float) -> None:
        logger.info(
            "[%s seed=%d] start: fitness=%.4f popsize=%d",
            self.problem.name, self.seed, fitness, self.config.population_size,
        )

    def _search(self, original: Patch, out_of_budget: Callable[[], bool]) -> int:
        config = self.config

        def fitness_of(patch: Patch) -> float:
            # Memoised on the patch object itself (ids are recycled by the
            # allocator, so an id-keyed dict would alias dead patches).
            cached = getattr(patch, "_fitness", None)
            if cached is None:
                cached = self.evaluate(patch).fitness
                patch._fitness = cached  # type: ignore[attr-defined]
            return cached

        # seed_popn (Algorithm 1 line 1): the original plus single-edit
        # variants localized against the original's own fault set — the
        # GenProg-family convention, which keeps generation 0 diverse.
        # Children are generated first, then the whole batch is scored
        # through the backend in child-index order.
        population: list[Patch] = [original]
        seed_variant = self.variant_tree(original)
        seed_faults = self.fault_localization(original, seed_variant)
        seedlings: list[Patch] = []
        while len(population) + len(seedlings) < config.population_size and not out_of_budget():
            if self.rng.random() <= config.rt_threshold:
                self.operator_stats["template"] += 1
                seedling = apply_fix_pattern(
                    original, seed_variant, seed_faults, self.rng,
                    extended=config.extended_templates,
                )
            else:
                self.operator_stats["mutation"] += 1
                seedling = mutate(
                    original,
                    seed_variant,
                    seed_faults,
                    self.rng,
                    config.delete_threshold,
                    config.insert_threshold,
                )
            seedlings.append(seedling)
        population.extend(seedlings)
        self._score_round(0, seedlings, population, out_of_budget)

        generations = 0
        while (
            generations < config.max_generations
            and self.winner is None
            and not out_of_budget()
        ):
            generations += 1
            children: list[Patch] = elite(
                population, fitness_of, config.elitism_fraction
            )
            # Generate the full generation first: tournament selection and
            # re-localization only consult the previous population's known
            # fitnesses, so deferring evaluation preserves Algorithm 1.
            offspring: list[Patch] = []
            while len(children) + len(offspring) < config.population_size and not out_of_budget():
                parent = tournament_select(
                    population, fitness_of, self.rng, config.tournament_size
                )
                variant = self.variant_tree(parent)
                fault_ids = self.fault_localization(parent, variant)
                if self.rng.random() <= config.rt_threshold:
                    self.operator_stats["template"] += 1
                    child = apply_fix_pattern(
                        parent, variant, fault_ids, self.rng,
                        extended=config.extended_templates,
                    )
                    new_children = [child]
                elif self.rng.random() <= config.mut_threshold:
                    self.operator_stats["mutation"] += 1
                    child = mutate(
                        parent,
                        variant,
                        fault_ids,
                        self.rng,
                        config.delete_threshold,
                        config.insert_threshold,
                    )
                    new_children = [child]
                else:
                    self.operator_stats["crossover"] += 1
                    parent2 = tournament_select(
                        population, fitness_of, self.rng, config.tournament_size
                    )
                    child1, child2 = crossover(parent, parent2, self.rng)
                    new_children = [child1, child2]
                offspring.extend(new_children)
            children.extend(offspring)
            population = children or population
            self._score_round(generations, offspring, population, out_of_budget)
            logger.info(
                "[%s seed=%d] gen %d: best=%.4f sims=%d best_patch=%s",
                self.problem.name, self.seed, generations, self.best_fitness,
                self.eval_sims, self.best_patch.describe()[:80],
            )
        if self.winner is not None:
            logger.info(
                "[%s seed=%d] plausible repair found (%d edits); minimizing",
                self.problem.name, self.seed, len(self.winner),
            )
        return generations

    def _concluded(self, patch: Patch, result: CandidateResult, rounds: int) -> None:
        if self.winner is not None:
            logger.info(
                "[%s seed=%d] minimized to %d edits: %s",
                self.problem.name, self.seed, len(patch), patch.describe(),
            )


def repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> RepairOutcome:
    """Run independent trials (paper: 5 per scenario) and return the first
    plausible outcome, or the best-fitness outcome if none succeeds.

    The trials run through :func:`~repro.core.harness.run_trials`: in
    seed order, on one shared evaluation backend (built from ``config``
    unless one is passed in; with ``config.workers > 1`` it is the
    supervised process pool).  The lowest plausible seed wins, falling
    back to the earliest best-fitness trial; the outcome is the same on
    every backend.  A passed-in ``backend`` must have been built for
    ``problem``; one built for another problem raises ``ValueError``, as
    does an empty ``seeds``.

    ``observers`` (repro.obs) see the full event stream of every trial.
    ``cancel`` is a cooperative cancellation probe (the service daemon
    passes one): trials poll it alongside their budget checks, and later
    seeds are never started once it fires.
    """
    return best_outcome(
        run_trials(
            CirFixEngine, problem, config, seeds, backend=backend,
            observers=observers, cancel=cancel,
        )
    )
