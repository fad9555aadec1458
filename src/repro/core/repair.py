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

Every candidate evaluation regenerates Verilog source from the patched AST,
reparses the design, appends the pre-parsed testbench, compiles, and
simulates — mirroring the original pipeline (PyVerilog codegen → VCS
simulation), with our own frontend and simulator standing in for both.

The engine runs **generate-then-evaluate-batch**: each generation's
children are produced first (selection uses the previous generation's
already-known fitnesses, preserving Algorithm 1), then the whole batch is
scored through an :class:`~repro.core.backend.EvaluationBackend` — serially
by default, or on a persistent process pool with ``config.workers > 1``.
Work is assigned in child-index order so outcomes are seed-deterministic
regardless of backend (see ``docs/repair_engine.md``).

The engine-neutral machinery (candidate evaluation, lint gate, batched
backend scoring, localization, minimization, outcome assembly) lives in
:mod:`repro.core.harness`; this module holds only the GP search loop.
``Evaluation``, ``RepairOutcome``, ``RepairProblem``, and
``adaptive_chunk_size`` are re-exported here for compatibility.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import random
import time as time_mod
from typing import Any, Callable, Sequence

from ..obs.events import PlausiblePatchFound, TrialStarted
from ..obs.observer import ObserverSet, RepairObserver
from .backend import EvaluationBackend, make_backend
from .config import RepairConfig
from .harness import (  # noqa: F401  (re-exported for compatibility)
    EngineHarness,
    Evaluation,
    RepairOutcome,
    RepairProblem,
    adaptive_chunk_size,
)
from .operators import apply_fix_pattern, crossover, mutate
from .patch import Patch
from .selection import elite, tournament_select

#: Engine progress log (the artifact's ``repair_logs``): enable with
#: ``logging.getLogger("repro.repair").setLevel(logging.INFO)``.
logger = logging.getLogger("repro.repair")


class CirFixEngine(EngineHarness):
    """Runs Algorithm 1 for one defect scenario and one random seed.

    Candidate batches are scored through an
    :class:`~repro.core.backend.EvaluationBackend`; pass one to share a
    worker pool across trials, or leave it ``None`` to let the engine
    build (and own) the backend selected by ``config``.
    """

    engine_name = "cirfix"

    def __init__(
        self,
        problem: RepairProblem,
        config: RepairConfig | None = None,
        seed: int = 0,
        backend: EvaluationBackend | None = None,
        observers: Sequence[RepairObserver] | None = None,
        cancel: Callable[[], bool] | None = None,
        checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
    ):
        super().__init__(
            problem, config, seed, backend=backend, observers=observers,
            cancel=cancel, checkpoint=checkpoint,
        )
        self.rng = random.Random(seed)
        #: How often each reproduction path ran (diagnostics).
        self.operator_stats = {"template": 0, "mutation": 0, "crossover": 0}

    def _rng_digest(self) -> str:
        """Stable digest of the GP random stream's current position."""
        return hashlib.sha256(
            repr(self.rng.getstate()).encode()
        ).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1)
    # ------------------------------------------------------------------

    def _run(self) -> RepairOutcome:
        config = self.config
        start = time_mod.monotonic()
        deadline = start + config.max_wall_seconds
        if self.events:
            self.events.emit(
                TrialStarted(
                    scenario=self.problem.name,
                    seed=self.seed,
                    backend=config.backend,
                    workers=config.workers,
                    population_size=config.population_size,
                    max_generations=config.max_generations,
                )
            )

        out_of_budget = self._budget_probe(deadline)

        original = Patch.empty()
        original_eval = self.evaluate(original)
        original._fitness = original_eval.fitness  # type: ignore[attr-defined]
        history = [original_eval.fitness]
        logger.info(
            "[%s seed=%d] start: fitness=%.4f popsize=%d",
            self.problem.name, self.seed, original_eval.fitness, config.population_size,
        )
        if original_eval.is_plausible:
            # Nothing to repair (shouldn't happen for real defect scenarios).
            return self._finish(original, original_eval, 0, start, history)

        def fitness_of(patch: Patch) -> float:
            # Memoised on the patch object itself (ids are recycled by the
            # allocator, so an id-keyed dict would alias dead patches).
            cached = getattr(patch, "_fitness", None)
            if cached is None:
                cached = self.evaluate(patch).fitness
                patch._fitness = cached  # type: ignore[attr-defined]
            return cached

        best_patch, best_fitness = original, original_eval.fitness
        generations = 0
        winner: Patch | None = None

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
        for seedling, evaluation in zip(
            seedlings, self._evaluate_generation(seedlings, out_of_budget)
        ):
            if evaluation is None:
                continue  # early stop: budget exhausted or winner already seen
            seedling._fitness = evaluation.fitness  # type: ignore[attr-defined]
            if evaluation.fitness > best_fitness:
                best_fitness, best_patch = evaluation.fitness, seedling
            if evaluation.fitness >= 1.0:
                winner = seedling
                break
        history.append(best_fitness)
        if self.events:
            self.events.emit(self._generation_event(0, population, best_fitness))
        self._save_checkpoint(0, best_fitness)

        while generations < config.max_generations and winner is None and not out_of_budget():
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
            for child, evaluation in zip(
                offspring, self._evaluate_generation(offspring, out_of_budget)
            ):
                if evaluation is None:
                    continue  # early stop: budget exhausted or winner already seen
                child._fitness = evaluation.fitness  # type: ignore[attr-defined]
                if evaluation.fitness > best_fitness:
                    best_fitness, best_patch = evaluation.fitness, child
                if evaluation.fitness >= 1.0:
                    winner = child
                    break
            population = children or population
            history.append(best_fitness)
            if self.events:
                self.events.emit(
                    self._generation_event(generations, population, best_fitness)
                )
            self._save_checkpoint(generations, best_fitness)
            logger.info(
                "[%s seed=%d] gen %d: best=%.4f sims=%d best_patch=%s",
                self.problem.name, self.seed, generations, best_fitness,
                self.eval_sims, best_patch.describe()[:80],
            )

        final_patch = winner if winner is not None else best_patch
        final_eval = self.evaluate(final_patch)
        if winner is not None:
            if self.events:
                self.events.emit(
                    PlausiblePatchFound(
                        generation=generations,
                        fitness=final_eval.fitness,
                        edits=len(final_patch),
                    )
                )
            logger.info(
                "[%s seed=%d] plausible repair found (%d edits); minimizing",
                self.problem.name, self.seed, len(final_patch),
            )
            final_patch = self._minimize(final_patch)
            final_eval = self.evaluate(final_patch)
            logger.info(
                "[%s seed=%d] minimized to %d edits: %s",
                self.problem.name, self.seed, len(final_patch), final_patch.describe(),
            )
        return self._finish(final_patch, final_eval, generations, start, history)


def repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
) -> RepairOutcome:
    """Run independent trials (paper: 5 per scenario) and return the first
    plausible outcome, or the best-fitness outcome if none succeeds.

    The trials run one after another, in seed order, on one shared
    evaluation backend (built from ``config`` unless one is passed in).
    With ``config.workers > 1`` that backend is the supervised process
    pool, so each trial's candidate evaluations run in parallel under its
    deadlines and quarantine.  The lowest plausible seed wins, falling
    back to the earliest best-fitness trial; the outcome is the same on
    every backend.

    ``observers`` (repro.obs) see the full event stream of every trial.

    ``cancel`` is a cooperative cancellation probe (the service daemon
    passes one): trials poll it alongside their budget checks, a
    cancelled sweep stops after the current chunk, and later seeds are
    never started.

    ``checkpoint`` (repair-as-a-service crash recovery) receives the
    deterministic cursor snapshot at every generation boundary.
    Snapshots carry the trial's seed, so a sweep journals whichever
    trial is currently running.
    """
    config = config or RepairConfig()
    events = observers if isinstance(observers, ObserverSet) else ObserverSet(observers)
    scope: contextlib.AbstractContextManager
    if backend is None:
        backend = make_backend(problem, config)
        scope = backend  # backends are context managers; exit closes
    else:
        scope = contextlib.nullcontext()  # caller owns the backend
    with scope:
        best: RepairOutcome | None = None
        for seed in seeds:
            if best is not None and cancel is not None and cancel():
                break  # cancelled between trials: stop the sweep early
            outcome = CirFixEngine(
                problem, config, seed, backend=backend, observers=events,
                cancel=cancel, checkpoint=checkpoint,
            ).run()
            if outcome.plausible:
                return outcome
            if best is None or outcome.fitness > best.fitness:
                best = outcome
        assert best is not None
        return best
