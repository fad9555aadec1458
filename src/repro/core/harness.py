"""Engine-neutral repair harness shared by every registered engine.

The GP engine (:mod:`repro.core.repair`) and the template-synthesis
engine (:mod:`repro.synth.engine`) differ only in how they *propose*
candidate patches.  Everything else — the trial skeleton (scoring the
unpatched design, folding each scored round into the best and winning
patch, minimizing the winner), candidate evaluation with memoisation,
scoring through an :class:`~repro.core.backend.EvaluationBackend`, fault
localization from each candidate's recorded output mismatch,
delta-debugging minimization, phase accounting, and the final
:class:`RepairOutcome` assembly — lives here in :class:`EngineHarness`,
so caching, supervision, and telemetry apply to every engine unchanged.

The backend is the only place a candidate is scored: chunks of a
round, the unpatched design, minimization subsets and single lookups
alike.  The engine hands it each exact candidate's text together with
the patched tree it already holds and the patch's edit list, so the
serial backend scores the tree and the pool's workers apply the edits,
and neither parses the text again; the text stays the candidate's
identity.  The engine keeps the backend's
:class:`~repro.core.backend.CandidateResult` as its own record.

:func:`run_trials` is the one multi-seed trial loop: every runner and
experiment driver runs its trials through it, on one shared backend.

Determinism contract (shared by all engines built on the harness): the
outcome for a given seed is bit-identical on every backend; every
simulation is one unique candidate evaluation, counted once in
``eval_sims``; observers only ever read already-computed values;
cancellation is polled at chunk boundaries.  See
``docs/repair_engine.md``.
"""

from __future__ import annotations

import contextlib
import time as time_mod
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..hdl import InexactCodegen, ast, generate
from ..instrument.trace import SimulationTrace
# Unused here, but the end-to-end benchmark tracer
# (benchmarks/e2e/tracer.py) wraps this name in this module.
from ..instrument.trace import output_mismatch  # noqa: F401
# Unused here, but the end-to-end benchmark tracer
# (benchmarks/e2e/tracer.py) wraps this name in this module.
from ..lint.engine import lint_tree  # noqa: F401
from ..obs.events import (
    BackendChunkCompleted,
    BackendChunkDispatched,
    CandidateEvaluated,
    CandidateTimedOut,
    ChunkRetried,
    GenerationCompleted,
    PhaseCompleted,
    PlausiblePatchFound,
    TrialCompleted,
    TrialStarted,
    WorkerCrashed,
)
from ..obs.observer import ObserverSet, RepairObserver
from .backend import (
    Candidate,
    CandidateResult,
    EvaluationBackend,
    candidate_text,
    make_backend,
)
# Unused here, but the end-to-end benchmark tracer
# (benchmarks/e2e/tracer.py) wraps this name in this module.
from .backend import evaluate_design_text  # noqa: F401
from .config import RepairConfig
from .faultloc import all_statement_ids, localize_faults
from .minimize import minimize_patch
from .patch import Patch
from .variant import VariantIndex, patch_index


@dataclass
class RepairOutcome:
    """Result of one repair trial (any engine)."""

    plausible: bool
    patch: Patch
    fitness: float
    repaired_source: str | None
    generations: int
    fitness_evals: int
    #: Always equal to ``eval_sims`` (kept for readers of this field).
    simulations: int
    elapsed_seconds: float
    best_fitness_history: list[float] = field(default_factory=list)
    seed: int = 0
    #: Unique candidate evaluations — the deterministic budget counter,
    #: identical across backends.
    eval_sims: int = 0
    #: Candidates the supervised pool quarantined after exhausting their
    #: retries (0 on healthy runs and on the serial backend).
    quarantined: int = 0

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        status = "PLAUSIBLE" if self.plausible else "no repair"
        return (
            f"{status}: fitness={self.fitness:.3f} edits={len(self.patch)} "
            f"gens={self.generations} sims={self.simulations} "
            f"t={self.elapsed_seconds:.1f}s"
        )


class RepairProblem:
    """A defect scenario packaged for the engine.

    Attributes:
        design: Faulty design AST (the modules the engine may edit).
            Patched variants share its subtrees, so it is never mutated.
        testbench: Instrumented testbench AST (never edited).
        oracle: Expected-behaviour trace from the golden design.
        design_index: The design's
            :class:`~repro.core.variant.VariantIndex`, built on first use:
            the variant index of the unpatched design, and where
            :meth:`Patch.apply` finds the paths of a patch applied from
            the design and the floor of its fresh ids (``max_id``).
        testbench_text: The testbench as generated source.

    An evaluation backend is built for one problem
    (:func:`~repro.core.backend.make_backend`), and an engine refuses a
    backend built for another.
    """

    def __init__(
        self,
        design: ast.Source,
        testbench: ast.Source,
        oracle: SimulationTrace,
        name: str = "scenario",
    ):
        self.design = design
        self.testbench = testbench
        self.oracle = oracle
        self.name = name
        self.testbench_text = generate(testbench)
        self._design_index: VariantIndex | None = None

    @property
    def design_index(self) -> VariantIndex:
        if self._design_index is None:
            self._design_index = VariantIndex(self.design)
        return self._design_index


def adaptive_chunk_size(batch: int, eval_chunk_size: int) -> int:
    """The chunk size to dispatch a ``batch`` of pending candidates with.

    ``eval_chunk_size`` is the *granularity floor*, not a fixed size: a
    batch that is not an exact multiple would otherwise end in a runt
    chunk (e.g. 25 pending at size 8 → 8+8+8+1), paying a full dispatch
    round-trip — and, on the pool backend, idling most workers — for a
    single candidate.  Instead the batch is split into
    ``batch // eval_chunk_size`` near-equal chunks (25 → 9+9+7).

    Deterministic in the batch size and configuration alone — NEVER the
    worker count or backend — so the chunk schedule (and with it the
    event sequence and early-stop points) stays bit-identical across
    backends, preserving the engine's determinism guarantee.
    """
    base = max(1, eval_chunk_size)
    if batch <= base:
        return base
    chunks = max(1, batch // base)
    return -(-batch // chunks)


class EngineHarness:
    """One trial of any engine: the trial skeleton and its accounting.

    Subclasses implement :meth:`_search` (how a round's patches are
    proposed) and own ``operator_stats`` (how candidates were proposed);
    everything else — the skeleton :meth:`_run`, memoised evaluation,
    batched backend scoring, localization, minimization, the outcome —
    is provided here.

    Every candidate is scored through an
    :class:`~repro.core.backend.EvaluationBackend`; pass one to share it
    (and its caches and workers) across trials, or leave it ``None`` to
    let the engine build (and own) the backend selected by ``config``.
    A passed-in backend must have been built for this problem: it
    scores against the problem's testbench and oracle, and a pool's
    workers apply the engine's edit lists to the problem's design.  A
    backend built for another problem raises ``ValueError``.
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
        if backend is not None and backend.problem is not problem:
            raise ValueError(
                f"{problem.name}: the backend was built for another problem "
                f"({backend.problem.name}); build it for this one"
            )
        self.problem = problem
        self.config = config or RepairConfig()
        self.seed = seed
        #: Cooperative cancellation probe (repair-as-a-service): checked
        #: wherever the budget is, so a cancelled trial stops at the next
        #: chunk boundary and returns its best-so-far outcome.  None (the
        #: default) keeps every cancellation branch dead.
        self._cancel = cancel
        #: Telemetry fan-out (repro.obs).  Falsy when no observers are
        #: attached, so every emit site costs one branch on unobserved
        #: runs; observers only ever read already-computed values, which
        #: is what keeps outcomes bit-identical with or without them.
        self.events = (
            observers
            if isinstance(observers, ObserverSet)
            else ObserverSet(observers)
        )
        self._backend = backend
        self._owns_backend = False
        self._cache: dict[str, CandidateResult] = {}
        self.fitness_evals = 0
        #: Deterministic count of unique candidate evaluations — every
        #: simulation the engine runs — so budget decisions keyed on it
        #: are identical under every backend.
        self.eval_sims = 0
        #: How often each proposal path ran (diagnostics); subclasses
        #: replace this with their own operator vocabulary.
        self.operator_stats: dict[str, int] = {}
        #: Trial state :meth:`_score_round` folds each scored round into
        #: (reset by :meth:`_run` from the unpatched design).
        self.best_patch = Patch.empty()
        self.best_fitness = 0.0
        self.winner: Patch | None = None
        self.history: list[float] = []
        #: Per-phase wall-clock (repro.obs): ``evaluation`` is the time
        #: inside candidate evaluation (compile + simulate + fitness, a
        #: pool worker's application of a shipped edit list, and the
        #: parse of a candidate scored from its text; the paper reports
        #: >90% of repair time goes there) and ``parse`` its frontend
        #: sub-span (that application or parse, elaboration and
        #: compilation);
        #: ``localization`` and ``minimization`` exclude the evaluations
        #: they trigger, so the three top-level phases partition the
        #: trial's accounted time.
        self.phase_seconds: dict[str, float] = {
            "parse": 0.0,
            "localization": 0.0,
            "evaluation": 0.0,
            "minimization": 0.0,
        }
        #: Monotonic id for backend chunk events.
        self._chunk_counter = 0
        #: Candidates the supervised pool quarantined (see
        #: ``docs/repair_engine.md``, "Fault tolerance").
        self.candidates_quarantined = 0

    @property
    def simulations(self) -> int:
        """Read-only alias of :attr:`eval_sims`.

        Kept for readers of the old counter name, among them the
        end-to-end benchmark tracer (``benchmarks/e2e/tracer.py``).
        """
        return self.eval_sims

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    def variant_tree(self, patch: Patch) -> ast.Source:
        """The faulty design with ``patch`` applied (ids stable).

        The tree shares subtrees with the design: read it, never mutate it.
        """
        return self._applied(patch)[0]

    def _applied(self, patch: Patch) -> tuple[ast.Source, str | None, bool]:
        """``patch`` applied to the design, the tree's generated text
        (None when codegen fails), and whether the parse of that text
        equals the tree.

        The one place a candidate is applied and generated.  The triple
        is memoised on the patch object, like ``_fitness``: a selected
        parent is scored, mutated and localized from one application.
        Strict codegen reports the tree shapes it cannot print faithfully
        (see :func:`~repro.hdl.codegen.generate`); such a tree still gets
        its usual text, but only that text is scored.
        """
        design = self.problem.design
        memo = getattr(patch, "_applied", None)
        if memo is None or memo[0] is not design:
            tree = patch.apply(self.problem.design_index)
            exact = True
            try:
                try:
                    text: str | None = generate(tree, strict=True)
                except InexactCodegen:
                    exact = False
                    text = generate(tree)
            except Exception:
                text = None
            memo = (design, tree, text, exact)
            patch._applied = memo  # type: ignore[attr-defined]
        return memo[1], memo[2], memo[3]

    def variant_index(self, patch: Patch, variant: ast.Source) -> VariantIndex:
        """The index of ``variant``, the tree ``patch`` yields, memoised on
        the patch beside ``_applied`` (the design's own index when the
        variant is the design), for Algorithm 2 and the GP operators to
        share."""
        if variant is self.problem.design:
            patch._index = self.problem.design_index  # type: ignore[attr-defined]
            return self.problem.design_index
        return patch_index(patch, variant)

    def evaluate(self, patch: Patch) -> CandidateResult:
        """Score one patch (simulate → fitness), with memoisation.

        A single candidate is scored as a one-candidate batch on the
        backend, like a chunk member: it consults the backend's caches
        and, on the pool, runs under supervision.  It emits no chunk
        events on any backend.
        """
        candidate, known = self._lookup(patch)
        if known is not None:
            return known
        backend = self._ensure_backend()
        started = time_mod.monotonic()
        (result,) = backend.evaluate_batch([candidate])
        self.phase_seconds["evaluation"] += time_mod.monotonic() - started
        self._note_incidents(None, backend)
        return self._record(candidate_text(candidate), result)

    def _lookup(self, patch: Patch) -> tuple[Candidate, CandidateResult | None]:
        """Start one evaluation: apply and codegen (once per patch object),
        then memo lookup.

        Returns the candidate for the backend — its design text, or, when
        the parse of the text equals the tree (strict codegen printed it
        faithfully), the text with its tree and the patch's edit list —
        and, when no simulation is needed (codegen failed or memo hit),
        its result; None means the candidate still has to be scored.
        """
        self.fitness_evals += 1
        try:
            tree, design_text, exact = self._applied(patch)
        except Exception:
            design_text = None
        if design_text is None:
            return "", CandidateResult(0.0, False, None)
        cached = self._cache.get(design_text)
        if cached is not None:
            return design_text, cached
        # The edit list, not the Patch: the pool pickles it, and a Patch
        # carries its memos (_applied, _index, _prefix).
        return ((design_text, tree, patch.edits) if exact else design_text), None

    def _record(self, design_text: str, result: CandidateResult) -> CandidateResult:
        """Finish one unique evaluation: counters, event, memo."""
        self.eval_sims += 1
        if result.failure is not None:
            self.candidates_quarantined += 1
        self.phase_seconds["parse"] += result.parse_seconds
        if self.events:
            self.events.emit(
                CandidateEvaluated(
                    fitness=result.fitness,
                    compiled=result.compiled,
                    wall_seconds=result.eval_seconds,
                    sim_events=result.sim_events,
                    sim_steps=result.sim_steps,
                )
            )
        self._cache[design_text] = result
        return result

    # ------------------------------------------------------------------
    # Batched evaluation (generate-then-evaluate)
    # ------------------------------------------------------------------

    def _ensure_backend(self) -> EvaluationBackend:
        """The engine's backend, building (and owning) one on first use."""
        if self._backend is None:
            self._backend = make_backend(self.problem, self.config)
            self._owns_backend = True
        return self._backend

    def _release_backend(self) -> None:
        """Close the backend if this engine created it."""
        if self._owns_backend and self._backend is not None:
            self._backend.close()
            self._backend = None
            self._owns_backend = False

    def _evaluate_generation(
        self, patches, out_of_budget
    ) -> list[CandidateResult | None]:
        """Score a whole generation's patches through the backend.

        Returns results aligned with ``patches``.  Unique uncached
        candidates are submitted in first-occurrence (child-index) order
        in near-equal chunks sized by :func:`adaptive_chunk_size` (with
        ``config.eval_chunk_size`` as the granularity floor); between chunks
        the engine checks the budget and whether a plausible candidate has
        already appeared, and stops early if so.  Entries that were never
        evaluated because of an early stop are ``None`` — callers only see
        them when the search is about to terminate anyway.  The chunk
        schedule is independent of the backend and worker count, which is
        what makes outcomes bit-identical across backends.
        """
        results: list[CandidateResult | None] = [None] * len(patches)
        pending: list[Candidate] = []
        indices_for_text: dict[str, list[int]] = {}
        for i, patch in enumerate(patches):
            candidate, known = self._lookup(patch)
            if known is not None:
                results[i] = known
                continue
            slots = indices_for_text.setdefault(candidate_text(candidate), [])
            if not slots:
                pending.append(candidate)
            slots.append(i)
        backend = self._ensure_backend()
        chunk_size = adaptive_chunk_size(len(pending), self.config.eval_chunk_size)
        found_winner = False
        for start in range(0, len(pending), chunk_size):
            if found_winner or out_of_budget():
                break
            chunk = pending[start : start + chunk_size]
            chunk_id = self._chunk_counter
            self._chunk_counter += 1
            if self.events:
                self.events.emit(
                    BackendChunkDispatched(
                        chunk=chunk_id, size=len(chunk), chunk_size=chunk_size
                    )
                )
            started = time_mod.monotonic()
            chunk_results = backend.evaluate_batch(chunk)
            chunk_seconds = time_mod.monotonic() - started
            self.phase_seconds["evaluation"] += chunk_seconds
            if self.events:
                self.events.emit(
                    BackendChunkCompleted(
                        chunk=chunk_id, size=len(chunk), wall_seconds=chunk_seconds
                    )
                )
            self._note_incidents(chunk_id, backend)
            for candidate, result in zip(chunk, chunk_results):
                text = candidate_text(candidate)
                self._record(text, result)
                for index in indices_for_text[text]:
                    results[index] = result
                if result.is_plausible:
                    found_winner = True
        return results

    def _note_incidents(
        self, chunk_id: int | None, backend: EvaluationBackend
    ) -> None:
        """Drain supervision incidents for one chunk (or, with ``chunk_id``
        None, one single candidate) into events.

        Healthy runs never have incidents, so this is a no-op on the
        deterministic schedule — golden event sequences are untouched.
        Quarantine *counters* are tallied from the results themselves
        (which also covers externally-owned backends); this method only
        produces the per-incident telemetry.  A single candidate is no
        chunk, so its requeues emit no ``chunk_retried``.
        """
        incidents = backend.take_incidents()
        if not incidents or not self.events:
            return
        requeued = 0
        for incident in incidents:
            if not incident.quarantined:
                requeued += 1
            if incident.kind == "timeout":
                self.events.emit(
                    CandidateTimedOut(
                        deadline_seconds=self.config.eval_deadline_seconds,
                        attempt=incident.attempt,
                        quarantined=incident.quarantined,
                    )
                )
            else:
                self.events.emit(
                    WorkerCrashed(
                        kind=incident.kind,
                        exitcode=incident.exitcode,
                        attempt=incident.attempt,
                        quarantined=incident.quarantined,
                    )
                )
        if requeued and chunk_id is not None:
            self.events.emit(ChunkRetried(chunk=chunk_id, requeued=requeued))

    # ------------------------------------------------------------------
    # Fault localization (paper Algorithm 2)
    # ------------------------------------------------------------------

    def fault_localization(
        self, patch: Patch, variant: ast.Source
    ) -> frozenset[int]:
        """Algorithm 2 seeded by this variant's own output mismatch.

        The mismatch set was recorded when the variant was evaluated, on
        whichever backend scored it, so an already-evaluated parent is
        never simulated again.  The fault set depends only on the variant
        and that mismatch, so it is memoised on the patch beside
        ``_applied``: a parent selected again is not localized again.
        The ``localization`` phase timer excludes the candidate
        evaluations this triggers (those are ``evaluation`` time).
        """
        started = time_mod.monotonic()
        eval_before = self.phase_seconds["evaluation"]
        try:
            return self._fault_localization(patch, variant)
        finally:
            self.phase_seconds["localization"] += (
                time_mod.monotonic() - started
            ) - (self.phase_seconds["evaluation"] - eval_before)

    def _fault_localization(
        self, patch: Patch, variant: ast.Source
    ) -> frozenset[int]:
        mismatch = self.evaluate(patch).mismatch
        memo = getattr(patch, "_faults", None)
        if memo is not None and memo[0] is variant and memo[1] == mismatch:
            return memo[2]
        index = self.variant_index(patch, variant)
        nodes = localize_faults(index, set(mismatch)).nodes if mismatch else None
        faults = frozenset(nodes or all_statement_ids(index))
        patch._faults = (variant, mismatch, faults)  # type: ignore[attr-defined]
        return faults

    # ------------------------------------------------------------------
    # Trial scaffolding shared by every engine
    # ------------------------------------------------------------------

    def run(self) -> RepairOutcome:
        """Run one trial to completion and return its outcome."""
        try:
            return self._run()
        finally:
            self._release_backend()

    def _run(self) -> RepairOutcome:
        """The trial skeleton every engine shares.

        Scores the unpatched design (returning at once if it is already
        plausible), lets the engine's :meth:`_search` propose and score
        rounds until a winner appears or the budget runs out, then
        minimizes the winner and builds the outcome.
        """
        config = self.config
        start = time_mod.monotonic()
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
        out_of_budget = self._budget_probe(start + config.max_wall_seconds)

        original = Patch.empty()
        original_result = self.evaluate(original)
        original._fitness = original_result.fitness  # type: ignore[attr-defined]
        self.history = [original_result.fitness]
        self.best_patch, self.best_fitness = original, original_result.fitness
        self.winner = None
        self._started(original_result.fitness)
        if original_result.is_plausible:
            # Nothing to repair (shouldn't happen for real defect scenarios).
            return self._finish(original, original_result, 0, start)

        rounds = self._search(original, out_of_budget)
        patch = self.winner if self.winner is not None else self.best_patch
        result = self.evaluate(patch)
        if self.winner is not None:
            if self.events:
                self.events.emit(
                    PlausiblePatchFound(
                        generation=rounds,
                        fitness=result.fitness,
                        edits=len(patch),
                    )
                )
            patch = self._minimize(patch)
            result = self.evaluate(patch)
        self._concluded(patch, result, rounds)
        return self._finish(patch, result, rounds, start)

    def _search(  # pragma: no cover - interface
        self, original: Patch, out_of_budget: Callable[[], bool]
    ) -> int:
        """Propose and score rounds until a winner or the budget stops them.

        Each round's new patches go through :meth:`_score_round`.
        Returns the number of rounds (the outcome's ``generations``).
        """
        raise NotImplementedError("engines built on EngineHarness implement _search")

    def _started(self, fitness: float) -> None:
        """Hook: the unpatched design scored ``fitness`` (engines log it)."""

    def _concluded(self, patch: Patch, result: CandidateResult, rounds: int) -> None:
        """Hook: the search ended on ``patch``, minimized if plausible."""

    def _score_round(
        self,
        cursor: int,
        batch: list[Patch],
        population: list[Patch],
        out_of_budget: Callable[[], bool],
    ) -> None:
        """Score one round's new patches and close the round.

        Folds ``batch`` into the trial's best patch and winner (stopping
        at the first plausible patch), then records the best fitness and
        emits ``GenerationCompleted`` for ``population`` at ``cursor``.
        """
        for patch, result in zip(
            batch, self._evaluate_generation(batch, out_of_budget)
        ):
            if result is None:
                continue  # early stop: budget exhausted or winner already seen
            patch._fitness = result.fitness  # type: ignore[attr-defined]
            if result.fitness > self.best_fitness:
                self.best_fitness, self.best_patch = result.fitness, patch
            if result.is_plausible:
                self.winner = patch
                break
        self.history.append(self.best_fitness)
        if self.events:
            self.events.emit(
                self._generation_event(cursor, population, self.best_fitness)
            )

    def _budget_probe(self, deadline: float) -> Callable[[], bool]:
        """The shared out-of-budget predicate for one trial.

        Polls cancellation, the wall-clock deadline, and the deterministic
        ``eval_sims`` budget — in that order, so a cancelled trial stops
        even when the budget still has headroom.
        """

        def out_of_budget() -> bool:
            if self._cancel is not None and self._cancel():
                return True
            if time_mod.monotonic() > deadline:
                return True
            if (
                self.config.max_fitness_evals is not None
                and self.eval_sims >= self.config.max_fitness_evals
            ):
                return True
            return False

        return out_of_budget

    def _generation_event(self, generation: int, population: list[Patch],
                          best_fitness: float) -> GenerationCompleted:
        """Build the GenerationCompleted event from known fitnesses."""
        fitnesses = [
            f for f in (getattr(p, "_fitness", None) for p in population)
            if f is not None
        ]
        return GenerationCompleted(
            generation=generation,
            population=len(population),
            best_fitness=best_fitness,
            fitness_min=min(fitnesses, default=0.0),
            fitness_mean=(sum(fitnesses) / len(fitnesses)) if fitnesses else 0.0,
            fitness_max=max(fitnesses, default=0.0),
            eval_sims=self.eval_sims,
            operator_stats=dict(self.operator_stats),
        )

    def _minimize(self, patch: Patch) -> Patch:
        def is_plausible(candidate: Patch) -> bool:
            return self.evaluate(candidate).is_plausible

        started = time_mod.monotonic()
        eval_before = self.phase_seconds["evaluation"]
        try:
            return minimize_patch(patch, is_plausible, self.config.minimize_budget)
        finally:
            # Like localization, the phase excludes its own evaluations.
            self.phase_seconds["minimization"] += (
                time_mod.monotonic() - started
            ) - (self.phase_seconds["evaluation"] - eval_before)

    def _finish(
        self, patch: Patch, result: CandidateResult, generations: int, start: float
    ) -> RepairOutcome:
        outcome = RepairOutcome(
            plausible=result.is_plausible,
            patch=patch,
            fitness=result.fitness,
            repaired_source=self._applied(patch)[1] if result.is_plausible else None,
            generations=generations,
            fitness_evals=self.fitness_evals,
            simulations=self.eval_sims,
            elapsed_seconds=time_mod.monotonic() - start,
            best_fitness_history=self.history,
            seed=self.seed,
            eval_sims=self.eval_sims,
            quarantined=self.candidates_quarantined,
        )
        if self.events:
            # Fixed emission order (all four phases, then the trial
            # summary) keeps the event-type sequence deterministic.
            for phase in ("parse", "localization", "evaluation", "minimization"):
                self.events.emit(
                    PhaseCompleted(phase=phase, seconds=self.phase_seconds[phase])
                )
            self.events.emit(
                TrialCompleted(
                    plausible=outcome.plausible,
                    fitness=outcome.fitness,
                    generations=outcome.generations,
                    eval_sims=outcome.eval_sims,
                    fitness_evals=outcome.fitness_evals,
                    simulations=outcome.simulations,
                    edits=len(outcome.patch),
                    elapsed_seconds=outcome.elapsed_seconds,
                    quarantined=outcome.quarantined,
                )
            )
        return outcome


@contextlib.contextmanager
def shared_backend(
    problem: RepairProblem,
    config: RepairConfig,
    backend: EvaluationBackend | None = None,
) -> Iterator[EvaluationBackend]:
    """The backend a run's trials share.

    Yields ``backend`` when the caller passes one in (the caller closes
    it); otherwise builds the backend ``config`` selects and closes it
    on exit.
    """
    if backend is not None:
        yield backend
        return
    with make_backend(problem, config) as built:
        yield built


def run_trials(
    engine: type[EngineHarness],
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: Sequence[int] = (0,),
    *,
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> list[RepairOutcome]:
    """Run one ``engine`` trial per seed and return every trial's outcome.

    The trials run in seed order on one backend (see
    :func:`shared_backend`) and stop after the first plausible trial, or
    when ``cancel()`` fires between trials.  Results replayed from the
    shared backend's cache equal freshly computed ones, so every trial's
    outcome is the one it would have on a backend of its own.
    ``observers`` see every trial's events back to back.

    A passed-in ``backend`` must have been built for ``problem`` (see
    :class:`EngineHarness`).

    Raises ``ValueError`` when ``seeds`` is empty, or when ``backend``
    was built for another problem.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    config = config or RepairConfig()
    events = observers if isinstance(observers, ObserverSet) else ObserverSet(observers)
    outcomes: list[RepairOutcome] = []
    with shared_backend(problem, config, backend) as backend:
        for seed in seeds:
            if outcomes and cancel is not None and cancel():
                break  # cancelled between trials: later seeds never start
            outcome = engine(
                problem, config, seed, backend=backend, observers=events,
                cancel=cancel,
            ).run()
            outcomes.append(outcome)
            if outcome.plausible:
                break
    return outcomes


def best_outcome(outcomes: Sequence[RepairOutcome]) -> RepairOutcome:
    """The outcome a multi-trial run reports: the earliest best-fitness one.

    Plausible is fitness 1.0, and :func:`run_trials` stops at the first
    plausible trial, so that trial wins whenever there is one.
    """
    return max(outcomes, key=lambda outcome: outcome.fitness)


__all__ = [
    "EngineHarness",
    "RepairOutcome",
    "RepairProblem",
    "adaptive_chunk_size",
    "best_outcome",
    "run_trials",
    "shared_backend",
]
