"""The template-synthesis repair engine (``engine="synth"``).

Where the GP engine *evolves* patches, this engine *solves* them: it
enumerates the rtl-repair template catalog (:mod:`repro.synth.templates`)
over the fault-localized region of the design, expands each template's
free choices into small deterministic domains against the instrumented
testbench trace (:mod:`repro.synth.solver`), and scores the surviving
instantiations through the shared harness — so the evaluation cache,
lint gate, supervision, and telemetry apply exactly as they do for GP.

Contract (same as every engine behind the registry):

- **Deterministic**: the search uses no randomness at all — the seed is
  only recorded in the outcome.  Same scenario → bit-identical
  ``RepairOutcome`` on any backend, with or without observers.
- **Cooperative cancel**: polled at chunk boundaries via the shared
  budget probe.
- **Budgeted**: ``eval_sims`` ticks once per unique candidate, so
  ``config.max_fitness_evals`` bounds the solve exactly like a GP run.

Template rounds map onto the harness's generation machinery: each round
is one batched :meth:`~repro.core.harness.EngineHarness._evaluate_generation`
call, emitting the familiar chunk/generation events plus the
synth-specific :class:`~repro.obs.events.SynthTemplateEnumerated` /
:class:`~repro.obs.events.SynthSolveCompleted` lifecycle events.
"""

from __future__ import annotations

import contextlib
import logging
import time as time_mod
from typing import Any, Callable, Sequence

from ..core.backend import BACKEND_NAMES, EvaluationBackend, make_backend
from ..core.config import RepairConfig
from ..core.harness import EngineHarness, RepairOutcome, RepairProblem
from ..core.patch import Patch
from ..hdl import ast
# Unused here, but the end-to-end benchmark tracer
# (benchmarks/e2e/tracer.py) wraps this name in this module.
from ..instrument.trace import output_mismatch  # noqa: F401
from ..obs.events import (
    PlausiblePatchFound,
    SynthSolveCompleted,
    SynthTemplateEnumerated,
    TrialStarted,
)
from ..obs.observer import ObserverSet, RepairObserver
from .solver import SolveContext, fault_scope_ids, mine_literals
from .templates import TEMPLATES, Candidate

logger = logging.getLogger("repro.synth")


class SynthEngine(EngineHarness):
    """One template-solving trial over one defect scenario.

    The ``seed`` parameter exists only to satisfy the engine contract
    (it is recorded in the outcome); the search itself is derandomized.
    """

    engine_name = "synth"

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
        #: Candidates enumerated per template (diagnostics).
        self.operator_stats = {template.name: 0 for template in TEMPLATES}

    # ------------------------------------------------------------------
    # Solve context
    # ------------------------------------------------------------------

    def _solve_context(self, design: ast.Source, faults: "set[int]") -> SolveContext:
        """Build the deterministic context templates solve against."""
        mismatch = set(self.evaluate(Patch.empty()).mismatch or ())
        suspects: dict[str, None] = {name: None for name in sorted(mismatch)}
        for fault_id in sorted(faults):
            node = design.find(fault_id)
            if node is None:
                continue
            for sub in node.walk():
                if isinstance(sub, ast.Identifier):
                    suspects.setdefault(sub.name)
        return SolveContext(
            fault_scope=fault_scope_ids(design, faults),
            mismatch=tuple(sorted(mismatch)),
            literal_pool=mine_literals(self.problem.oracle, mismatch),
            suspect_names=tuple(suspects),
        )

    # ------------------------------------------------------------------
    # Main loop: one batched round per template, early-stop on a winner
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
            "[%s] synth start: fitness=%.4f", self.problem.name, original_eval.fitness
        )
        if original_eval.is_plausible:
            # Nothing to repair (shouldn't happen for real defect scenarios).
            return self._finish(original, original_eval, 0, start, history)

        variant = self.variant_tree(original)
        faults = self.fault_localization(original, variant)
        ctx = self._solve_context(variant, faults)

        best_patch, best_fitness = original, original_eval.fitness
        rounds = 0
        total_candidates = 0
        winner: Patch | None = None
        winner_template = ""
        for template in TEMPLATES:
            if winner is not None or out_of_budget():
                break
            candidates: list[Candidate] = template.instantiate(variant, ctx)
            self.operator_stats[template.name] += len(candidates)
            total_candidates += len(candidates)
            if self.events:
                self.events.emit(
                    SynthTemplateEnumerated(
                        template=template.name,
                        sites=len({c.site for c in candidates}),
                        candidates=len(candidates),
                    )
                )
            if not candidates:
                continue
            rounds += 1
            patches = [candidate.patch for candidate in candidates]
            for patch, evaluation in zip(
                patches, self._evaluate_generation(patches, out_of_budget)
            ):
                if evaluation is None:
                    continue  # early stop: budget exhausted or winner already seen
                patch._fitness = evaluation.fitness  # type: ignore[attr-defined]
                if evaluation.fitness > best_fitness:
                    best_fitness, best_patch = evaluation.fitness, patch
                if evaluation.fitness >= 1.0:
                    winner = patch
                    winner_template = template.name
                    break
            history.append(best_fitness)
            if self.events:
                self.events.emit(
                    self._generation_event(rounds - 1, patches, best_fitness)
                )
            # Template boundary = the synth engine's checkpoint boundary.
            self._save_checkpoint(rounds - 1, best_fitness, label=template.name)
            logger.info(
                "[%s] template %s: %d candidates, best=%.4f",
                self.problem.name, template.name, len(candidates), best_fitness,
            )

        final_patch = winner if winner is not None else best_patch
        final_eval = self.evaluate(final_patch)
        if winner is not None:
            if self.events:
                self.events.emit(
                    PlausiblePatchFound(
                        generation=rounds,
                        fitness=final_eval.fitness,
                        edits=len(final_patch),
                    )
                )
            logger.info(
                "[%s] plausible repair via %s; minimizing",
                self.problem.name, winner_template,
            )
            final_patch = self._minimize(final_patch)
            final_eval = self.evaluate(final_patch)
        if self.events:
            self.events.emit(
                SynthSolveCompleted(
                    templates=rounds,
                    candidates=total_candidates,
                    winner_template=winner_template,
                    plausible=final_eval.is_plausible,
                )
            )
        return self._finish(final_patch, final_eval, rounds, start, history)


def synth_repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
) -> RepairOutcome:
    """The registered ``"synth"`` runner (engine-registry contract).

    The synth search is fully derandomized, so every seed in ``seeds``
    would replay the identical trial; exactly one trial runs, stamped
    with ``seeds[0]``.  The multi-seed signature is kept so the runner
    is drop-in interchangeable with :func:`repro.core.repair.repair`.
    """
    config = config or RepairConfig()
    if config.backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown evaluation backend {config.backend!r}; "
            f"valid backends: {', '.join(BACKEND_NAMES)}"
        )
    if not seeds:
        raise ValueError("synth_repair needs at least one seed")
    events = observers if isinstance(observers, ObserverSet) else ObserverSet(observers)
    scope: contextlib.AbstractContextManager
    if backend is None:
        backend = make_backend(problem, config)
        scope = backend  # backends are context managers; exit closes
    else:
        scope = contextlib.nullcontext()  # caller owns the backend
    with scope:
        return SynthEngine(
            problem, config, seeds[0], backend=backend, observers=events,
            cancel=cancel, checkpoint=checkpoint,
        ).run()


__all__ = ["SynthEngine", "synth_repair"]
