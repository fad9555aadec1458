"""The template-synthesis repair engine (``engine="synth"``).

Where the GP engine *evolves* patches, this engine *solves* them: it
enumerates the rtl-repair template catalog (:mod:`repro.synth.templates`)
over the fault-localized region of the design, expands each template's
free choices into small deterministic domains against the instrumented
testbench trace (:mod:`repro.synth.solver`), and scores the surviving
instantiations through the shared harness — so the evaluation cache,
supervision, and telemetry apply exactly as they do for GP.

Contract (same as every engine behind the registry):

- **Deterministic**: the search uses no randomness at all — the seed is
  only recorded in the outcome.  Same scenario → bit-identical
  ``RepairOutcome`` on any backend, with or without observers.
- **Cooperative cancel**: polled at chunk boundaries via the shared
  budget probe.
- **Budgeted**: ``eval_sims`` ticks once per unique candidate, so
  ``config.max_fitness_evals`` bounds the solve exactly like a GP run.

Template rounds map onto the harness's generation machinery: each round
is one batched :meth:`~repro.core.harness.EngineHarness._score_round`
call, emitting the familiar chunk/generation events plus the
synth-specific :class:`~repro.obs.events.SynthTemplateEnumerated` /
:class:`~repro.obs.events.SynthSolveCompleted` lifecycle events.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

from ..core.backend import CandidateResult, EvaluationBackend
from ..core.config import RepairConfig
from ..core.harness import (
    EngineHarness,
    RepairOutcome,
    RepairProblem,
    run_trials,
)
from ..core.patch import Patch
from ..hdl import ast
# Unused here, but the end-to-end benchmark tracer
# (benchmarks/e2e/tracer.py) wraps this name in this module.
from ..instrument.trace import output_mismatch  # noqa: F401
from ..obs.events import SynthSolveCompleted, SynthTemplateEnumerated
from ..obs.observer import RepairObserver
from .solver import SolveContext, mine_literals
from .templates import TEMPLATES, Candidate

logger = logging.getLogger("repro.synth")


class SynthEngine(EngineHarness):
    """One template-solving trial over one defect scenario.

    The ``seed`` parameter exists only to satisfy the engine contract
    (it is recorded in the outcome); the search itself is derandomized.
    """

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
        #: Candidates enumerated per template (diagnostics).
        self.operator_stats = {template.name: 0 for template in TEMPLATES}
        #: The template whose round produced the winner ("" until then).
        self._winner_template = ""

    # ------------------------------------------------------------------
    # Solve context
    # ------------------------------------------------------------------

    def _solve_context(
        self, design: ast.Source, faults: "frozenset[int]"
    ) -> SolveContext:
        """Build the deterministic context templates solve against.

        Fault localization returns *statement* ids; template sites are
        often expression nodes inside them, so every node under a fault
        node joins the fault scope (sites inherit blame).
        """
        mismatch = set(self.evaluate(Patch.empty()).mismatch or ())
        suspects: dict[str, None] = {name: None for name in sorted(mismatch)}
        # Each fault id's node, the first in preorder as find() picks it,
        # looked up from one walk.
        nodes: dict[int, ast.Node] = {}
        for node in design.walk():
            if node.node_id in faults:
                nodes.setdefault(node.node_id, node)
        scope: set[int] = set()
        for fault_id in sorted(nodes):
            for sub in nodes[fault_id].walk():
                if sub.node_id is not None:
                    scope.add(sub.node_id)
                if isinstance(sub, ast.Identifier):
                    suspects.setdefault(sub.name)
        return SolveContext(
            fault_scope=frozenset(scope),
            mismatch=tuple(sorted(mismatch)),
            literal_pool=mine_literals(self.problem.oracle, mismatch),
            suspect_names=tuple(suspects),
        )

    # ------------------------------------------------------------------
    # Main loop: one batched round per template, early-stop on a winner
    # ------------------------------------------------------------------

    def _started(self, fitness: float) -> None:
        logger.info("[%s] synth start: fitness=%.4f", self.problem.name, fitness)

    def _search(self, original: Patch, out_of_budget: Callable[[], bool]) -> int:
        variant = self.variant_tree(original)
        faults = self.fault_localization(original, variant)
        ctx = self._solve_context(variant, faults)

        rounds = 0
        for template in TEMPLATES:
            if self.winner is not None or out_of_budget():
                break
            candidates: list[Candidate] = template.instantiate(variant, ctx)
            self.operator_stats[template.name] += len(candidates)
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
            self._score_round(rounds - 1, patches, patches, out_of_budget)
            if self.winner is not None:
                self._winner_template = template.name
            logger.info(
                "[%s] template %s: %d candidates, best=%.4f",
                self.problem.name, template.name, len(candidates), self.best_fitness,
            )
        if self.winner is not None:
            logger.info(
                "[%s] plausible repair via %s; minimizing",
                self.problem.name, self._winner_template,
            )
        return rounds

    def _concluded(self, patch: Patch, result: CandidateResult, rounds: int) -> None:
        if self.events:
            self.events.emit(
                SynthSolveCompleted(
                    templates=rounds,
                    candidates=sum(self.operator_stats.values()),
                    winner_template=self._winner_template,
                    plausible=result.is_plausible,
                )
            )


def synth_repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> RepairOutcome:
    """The registered ``"synth"`` runner (engine-registry contract).

    The synth search is fully derandomized, so every seed in ``seeds``
    would replay the identical trial; exactly one trial runs, stamped
    with ``seeds[0]``.  The multi-seed signature is kept so the runner
    is drop-in interchangeable with :func:`repro.core.repair.repair`.
    An empty ``seeds`` raises ``ValueError``.
    """
    (outcome,) = run_trials(
        SynthEngine, problem, config, seeds[:1], backend=backend,
        observers=observers, cancel=cancel,
    )
    return outcome


__all__ = ["SynthEngine", "synth_repair"]
