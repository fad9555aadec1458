"""Candidate-evaluation backends for the repair engine.

The paper reports that >90% of repair wall-clock goes to fitness
evaluations (candidate simulations), and evaluations within a generation
are independent.  This module factors the evaluation pipeline
(a tree → compile → simulate → fitness) out of the engine and puts an
:class:`EvaluationBackend` interface in front of it:

- :class:`SerialBackend` evaluates candidates inline in the engine's
  process — the paper's original behaviour and the default.  An exact
  candidate (a :data:`Candidate` triple) is compiled from the tree the
  engine holds;
- :class:`ProcessPoolBackend` keeps a persistent pool of **supervised**
  worker processes: each worker parses the instrumented testbench,
  loads the oracle and indexes the problem's design **once** at
  initialisation, then scores candidates one task at a time.  An exact
  candidate ships as its patch's edit list (§3's "sequence of AST edits
  parameterized by unique node numbers"), which the worker applies to
  its index of the design.

So both backends run one pipeline: score a tree, and parse only the
text of a candidate that is not exact.  A candidate is exact when
strict codegen printed its tree faithfully, so that the parse of its
text equals the tree (see
:meth:`repro.core.harness.EngineHarness._applied`), and both backends
simulate the same program.  A candidate's text is its identity
everywhere: the engine memo, :class:`EvalCache` and the disk store key
on it.

Every candidate the engine scores — batch members, the unpatched
design, minimization subsets — goes through a backend, so the caches
and the supervisor sit under every simulation.  Both backends run the
identical pipeline on the identical inputs and return the identical
compact :class:`CandidateResult` — the simulation trace is reduced to
its fitness and sorted output mismatch inside the pipeline and never
leaves it — so a batch submitted in child-index order produces identical
results either way.  The engine's determinism guarantee does not depend
on the backend (see ``docs/repair_engine.md``).

Every candidate runs on :class:`repro.sim.CompiledSimulator`; the
tree-walking :class:`repro.sim.Simulator` stays the reference it is
raced against (``docs/simulation.md``).  :class:`EvalCache` memoises
whole results by candidate source hash, so cross-trial repeats
(multi-seed experiments share one backend) replay the recorded result
instead of re-simulating.

Fault tolerance
---------------

The engine's never-raises contract ("the search must survive arbitrary
mutants") extends to the pool: a pathological candidate that hangs,
hard-exits, or exhausts a worker's memory must cost *one population
slot*, never the run.  The supervised pool therefore

- dispatches **per task** and tracks each in-flight candidate against a
  wall-clock deadline (:attr:`~repro.core.config.RepairConfig.eval_deadline_seconds`);
- detects worker death (closed pipe / process sentinel), classifies it
  (``crash`` vs ``oom``), respawns the worker, and requeues the affected
  candidate with a bounded retry count
  (:attr:`~repro.core.config.RepairConfig.eval_max_retries`);
- after the retries are spent, **quarantines** the candidate as a
  deterministic :class:`EvalFailure` result (fitness 0.0,
  ``compiled=False``, kind ``timeout`` / ``crash`` / ``oom``);
- sandboxes workers at init: a bounded recursion limit plus an optional
  ``RLIMIT_AS`` address-space cap
  (:attr:`~repro.core.config.RepairConfig.worker_mem_mb`).

Supervision incidents are buffered on the backend and drained by the
engine (:meth:`ProcessPoolBackend.take_incidents`), which turns them
into ``repro.obs`` events.  With no faults and deadlines unhit the
supervised pool returns bit-identical results in bit-identical order to
the old blocking ``pool.map`` — and emits nothing new.

Chaos testing
-------------

``REPRO_EVAL_CHAOS`` (or :func:`repro.fuzz.faults.plant_eval_chaos`)
installs a *test-only* chaos plan mapping dispatch ordinals to planted
faults (``hang`` / ``exit`` / ``balloon``), so the recovery machinery is
exercised by deliberately planted degenerate mutants — see
``docs/fuzzing.md`` and ``tests/core/test_fault_tolerance.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import multiprocessing
import multiprocessing.connection
import os
import sys
import time
from collections import OrderedDict, deque
from pathlib import Path
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from ..cache import PersistentEvalCache
from ..hdl import ParseError, ast, generate, parse
from ..hdl.lexer import LexError
from ..instrument.trace import SimulationTrace, output_mismatch
from ..sim.compile import CompiledSimulator
from ..sim.elaborate import ElaborationError
# Unused here, but the end-to-end benchmark tracer
# (benchmarks/e2e/tracer.py) wraps this name in this module.
from ..sim.simulator import Simulator  # noqa: F401
from .config import BACKEND_NAMES, RepairConfig
from .fitness import evaluate_fitness
from .patch import Edit, Patch
from .variant import VariantIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repair → backend)
    from .repair import RepairProblem

logger = logging.getLogger("repro.repair")


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvalFailure:
    """Why a candidate was quarantined by the supervised pool.

    A quarantined candidate scores a deterministic failure (fitness 0.0,
    ``compiled=False``) after exhausting its retries, so one poison
    mutant costs one population slot instead of wedging the run.
    """

    #: ``"timeout"`` (deadline exceeded), ``"crash"`` (worker died or
    #: raised), or ``"oom"`` (memory exhaustion — worker ``MemoryError``
    #: under the ``RLIMIT_AS`` sandbox, or a SIGKILL'd worker).
    kind: str
    #: How many dispatch attempts were made before quarantining.
    attempts: int


@dataclass(frozen=True)
class SupervisionIncident:
    """One supervision event observed by the pool (for telemetry).

    Buffered on the backend and drained by the engine via
    :meth:`ProcessPoolBackend.take_incidents`; the engine converts them
    into ``candidate_timed_out`` / ``worker_crashed`` / ``chunk_retried``
    events so observers see the fault-tolerance machinery at work.
    """

    #: ``"timeout"``, ``"crash"``, or ``"oom"`` (see :class:`EvalFailure`).
    kind: str
    #: 1-based dispatch attempt that failed.
    attempt: int
    #: True when the failure exhausted the retry budget (the candidate
    #: was quarantined); False when the candidate was requeued.
    quarantined: bool
    #: Worker exit code when the worker died (negative = killed by
    #: signal); None for worker-reported failures and timeouts.
    exitcode: int | None = None


@dataclass
class CandidateResult:
    """What a backend reports for one candidate design text — the one
    record the engine keeps per unique candidate.

    ``mismatch`` is the seed of fault localization (Algorithm 2): the
    output wires that ever differ from the oracle, sorted.  It is None
    when the candidate did not simulate and score (it did not compile,
    crashed in simulation, or was quarantined), so results stay small
    across the pool's pipes and in the disk cache, and no parent is ever
    simulated twice.  The trailing stats fields are the telemetry payload
    (repro.obs): measured where the evaluation actually ran, so pool
    workers batch them back with the chunk results instead of emitting
    events across the process boundary.  ``failure`` is set only for
    candidates the supervised pool quarantined.
    """

    fitness: float
    compiled: bool
    mismatch: tuple[str, ...] | None
    #: Wall-clock of the whole evaluation (codegen output → fitness).
    eval_seconds: float = 0.0
    #: Wall-clock of the frontend span: making the tree (applying a
    #: shipped edit list, or parsing the text of a candidate scored from
    #: its text; nothing when the tree is at hand), then elaborating and
    #: compiling it.
    parse_seconds: float = 0.0
    #: Wall-clock of the simulate + fitness span.
    sim_seconds: float = 0.0
    #: Scheduler callbacks the candidate's simulation executed.
    sim_events: int = 0
    #: Statements the candidate's simulation executed.
    sim_steps: int = 0
    #: Set when the supervised pool quarantined this candidate.
    failure: EvalFailure | None = None

    @property
    def is_plausible(self) -> bool:
        """Fitness 1.0: the candidate passes the whole testbench."""
        return self.fitness >= 1.0


def _quarantine_result(kind: str, attempts: int) -> CandidateResult:
    """The deterministic result a quarantined candidate scores."""
    return CandidateResult(0.0, False, None, failure=EvalFailure(kind, attempts))


#: One candidate for :meth:`EvaluationBackend.evaluate_batch`: its design
#: text, or, for an exact candidate, a ``(text, tree, edits)`` triple
#: whose tree equals the parse of the text and is what the edit list
#: makes of the problem's design.  The serial backend scores the tree;
#: the pool ships the edit list, which its workers apply.
Candidate = str | tuple[str, ast.Source, Sequence[Edit]]


def candidate_text(candidate: Candidate) -> str:
    """The design text of one candidate."""
    return candidate if isinstance(candidate, str) else candidate[0]


def _unpack(
    candidate: Candidate,
) -> tuple[str, ast.Source | None, Sequence[Edit] | None]:
    """A candidate's text, tree and edit list (None, None for text only)."""
    if isinstance(candidate, str):
        return candidate, None, None
    return candidate


# ----------------------------------------------------------------------
# The evaluation pipeline (shared by every backend)
# ----------------------------------------------------------------------


#: Cap on retained per-testbench compile caches (LRU).  Each entry pins
#: one testbench tree plus the compiled process templates for its
#: modules, so the cap bounds memory.  A process that cycles through more
#: testbenches than this misses on each return to one: a race over 22
#: minted designs, visited round-robin, recompiles each testbench once
#: per job.  Lifting the cap to 64 there cost about 1.8 MiB of RSS for no
#: measurable job time, so it stays small.
_TB_STATE_CAP = 8

#: ``id(testbench)`` → ``(testbench, shared template cache, module ids)``.
#: The stored testbench reference both validates the ``id()`` key (no
#: stale hit after garbage collection reuses an address) and keeps the
#: tree alive so its module ids stay unique for the entry's lifetime.
_TB_COMPILE_STATE: OrderedDict[int, tuple[ast.Source, dict, frozenset[int]]] = (
    OrderedDict()
)


def _testbench_compile_state(testbench: ast.Source) -> tuple[dict, frozenset[int]]:
    """Shared compile state for one testbench tree.

    The testbench module objects are appended to every candidate's
    combined tree as-is, so their compiled process templates can be
    built once per process and reused for every candidate evaluated
    against the same testbench (the dominant cost of compilation
    amortises to zero).
    """
    key = id(testbench)
    entry = _TB_COMPILE_STATE.get(key)
    if entry is not None and entry[0] is testbench:
        _TB_COMPILE_STATE.move_to_end(key)
        return entry[1], entry[2]
    shared_cache: dict = {}
    module_ids = frozenset(id(module) for module in testbench.modules)
    _TB_COMPILE_STATE[key] = (testbench, shared_cache, module_ids)
    while len(_TB_COMPILE_STATE) > _TB_STATE_CAP:
        _TB_COMPILE_STATE.popitem(last=False)
    return shared_cache, module_ids


def evaluate_design_text(
    design_text: str,
    testbench: ast.Source,
    oracle: SimulationTrace,
    config: RepairConfig,
    tree: ast.Source | Callable[[], ast.Source] | None = None,
) -> CandidateResult:
    """Score one candidate design: frontend → simulate → fitness.

    The frontend makes the candidate's tree, then elaborates and
    compiles it.  ``tree``, when given, must equal the parse of
    ``design_text``, which is then not parsed: it is the tree itself, or
    a function that makes it (a pool worker applying a shipped edit
    list), called inside the frontend span.

    Never raises for the candidate's own faults: a candidate that fails
    to parse or elaborate scores 0.0 with ``compiled=False``; one that
    crashes at runtime — anywhere in the simulate / trace-decode /
    fitness span — scores 0.0 with ``compiled=True`` (the search must
    survive arbitrary mutants).  Any other exception a ``tree`` function
    raises propagates: a pool worker reports it as a contained crash.

    Each result carries its telemetry stats (phase wall-clock and the
    simulator's event-loop counters) measured in the process that ran
    the pipeline — serial callers and pool workers report identically.
    The simulator is closed once it has run, on every path, so
    reference counting frees it (:meth:`repro.sim.Simulator.close`).
    """
    started = time.perf_counter()
    try:
        if tree is None:
            tree = parse(design_text)
        elif not isinstance(tree, ast.Source):
            tree = tree()
        # The compiled simulator never mutates the combined tree, so the
        # testbench modules, and design subtrees the engine shares
        # between candidates, ride along uncloned; the testbench's
        # compiled templates are shared across every candidate scored
        # against this testbench.
        combined = ast.Source(list(tree.modules) + list(testbench.modules))
        shared_cache, shared_ids = _testbench_compile_state(testbench)
        sim = CompiledSimulator(
            combined,
            max_steps=config.max_sim_steps,
            shared_cache=shared_cache,
            shared_module_ids=shared_ids,
        )
    except (ParseError, LexError, ElaborationError, RecursionError, MemoryError):
        elapsed = time.perf_counter() - started
        return CandidateResult(
            0.0, False, None, eval_seconds=elapsed, parse_seconds=elapsed
        )
    parse_seconds = time.perf_counter() - started
    try:
        result = sim.run(config.max_sim_time)
    except Exception:
        # Any uncontained runtime failure (width-cap violations from a
        # monitor callback, pathological recursion, ...) scores zero.
        elapsed = time.perf_counter() - started
        return CandidateResult(
            0.0, True, None,
            eval_seconds=elapsed,
            parse_seconds=parse_seconds,
            sim_seconds=elapsed - parse_seconds,
            sim_events=sim.scheduler.events_executed,
            sim_steps=sim.steps_used,
        )
    finally:
        # Scoring reads only the run's result, so reference counting
        # frees the simulator from here on.
        sim.close()
    try:
        trace = SimulationTrace.from_records(result.trace)
        fitness = evaluate_fitness(trace, oracle, config.phi).fitness
        mismatch = tuple(sorted(output_mismatch(oracle, trace)))
    except Exception:
        # Trace decoding / fitness scoring can blow up on degenerate
        # recorded values (or run out of memory on a pathological trace);
        # that too is the candidate's fault, never the engine's problem.
        elapsed = time.perf_counter() - started
        return CandidateResult(
            0.0, True, None,
            eval_seconds=elapsed,
            parse_seconds=parse_seconds,
            sim_seconds=elapsed - parse_seconds,
            sim_events=result.events_executed,
            sim_steps=result.steps_used,
        )
    elapsed = time.perf_counter() - started
    return CandidateResult(
        fitness, True, mismatch,
        eval_seconds=elapsed,
        parse_seconds=parse_seconds,
        sim_seconds=elapsed - parse_seconds,
        sim_events=result.events_executed,
        sim_steps=result.steps_used,
    )


# ----------------------------------------------------------------------
# Content-addressed evaluation cache (cross-generation / cross-trial)
# ----------------------------------------------------------------------

#: Version tag of persisted evaluation payloads; bump whenever the
#: encoded field set changes so stale entries decode as misses.
EVAL_PAYLOAD_VERSION = 3


def eval_context_digest(
    testbench_text: str, oracle: SimulationTrace, config: RepairConfig
) -> str:
    """Digest of everything outcome-relevant *besides* the candidate text.

    The persistent cache tier is shared across jobs, configs, and daemon
    restarts, so its keys must cover the full input of one candidate
    evaluation — two evaluations whose results could legally differ must
    never alias.  The audited ingredient list (see ``docs/service.md``):

    - the instrumented **testbench** text and the **oracle** trace (the
      other two pipeline inputs besides the candidate);
    - ``phi`` (fitness weighting), ``max_sim_time`` / ``max_sim_steps``
      (simulation budgets — a budget change can turn a completed
      simulation into a truncated one);
    - the ``eval_deadline_seconds`` **bucket** (minutes granularity, 0 =
      off) and ``worker_mem_mb`` — a tighter deadline or memory sandbox
      can contain-fail a candidate that a looser one completes.

    Deliberately excluded: GP schedule knobs (population, generations,
    thresholds, seeds, chunk size, worker count) — they decide *which*
    candidates get evaluated, never what one evaluation returns.
    """
    deadline = config.eval_deadline_seconds
    context = {
        "testbench_sha": hashlib.sha256(testbench_text.encode("utf-8")).hexdigest(),
        "oracle_sha": hashlib.sha256(oracle.to_csv().encode("utf-8")).hexdigest(),
        "phi": config.phi,
        "max_sim_time": config.max_sim_time,
        "max_sim_steps": config.max_sim_steps,
        "deadline_bucket": 0 if deadline <= 0 else math.ceil(deadline / 60.0),
        "worker_mem_mb": config.worker_mem_mb,
    }
    blob = json.dumps(context, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_eval_payload(result: CandidateResult) -> dict:
    """Encode one result as the JSON payload the disk tier persists.

    The payload is a faithful round-trip of every :class:`CandidateResult`
    field except ``failure`` (quarantined results are never cached) —
    including the recorded telemetry stats, so replayed hits produce the
    same event stream the original computation did.
    """
    return {
        "version": EVAL_PAYLOAD_VERSION,
        "fitness": result.fitness,
        "compiled": result.compiled,
        "mismatch": None if result.mismatch is None else list(result.mismatch),
        "eval_seconds": result.eval_seconds,
        "parse_seconds": result.parse_seconds,
        "sim_seconds": result.sim_seconds,
        "sim_events": result.sim_events,
        "sim_steps": result.sim_steps,
    }


def decode_eval_payload(payload: dict) -> CandidateResult | None:
    """Decode a persisted payload back into a :class:`CandidateResult`.

    Returns None for payloads of a different version or with missing /
    malformed fields — the caller treats that as a cache miss (the disk
    tier is corruption-tolerant end to end).
    """
    try:
        if payload.get("version") != EVAL_PAYLOAD_VERSION:
            return None
        mismatch = payload["mismatch"]
        return CandidateResult(
            float(payload["fitness"]),
            bool(payload["compiled"]),
            None if mismatch is None else tuple(mismatch),
            eval_seconds=float(payload["eval_seconds"]),
            parse_seconds=float(payload["parse_seconds"]),
            sim_seconds=float(payload["sim_seconds"]),
            sim_events=int(payload["sim_events"]),
            sim_steps=int(payload["sim_steps"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


def open_eval_store(config: RepairConfig) -> PersistentEvalCache | None:
    """The persistent cache tier selected by ``config``, or None.

    ``config.cache_dir`` empty disables the tier.  Opening goes through
    :meth:`PersistentEvalCache.open`, so every backend in the process
    pointed at the same directory shares one instance (one LRU order,
    one set of statistics — the service daemon relies on this).  An
    unusable directory degrades to no disk tier rather than failing the
    run.
    """
    if not config.cache_dir:
        return None
    try:
        return PersistentEvalCache.open(config.cache_dir, config.cache_max_mb << 20)
    except OSError as exc:
        logger.warning(
            "persistent eval cache unavailable at %s (%s); continuing without it",
            config.cache_dir, exc,
        )
        return None


class EvalCache:
    """LRU cache of :class:`CandidateResult` keyed by candidate source hash.

    The engine already deduplicates within one trial (its per-trial
    fitness memo), so by the time a repeated design text reaches the
    backend it is a *cross-trial* repeat: multi-seed experiments share
    one backend, and every trial re-scores the seed design plus the
    common early mutants.  The cache replays the recorded result —
    including the telemetry fields (``eval_seconds`` / ``sim_events`` /
    ``sim_steps``) measured when the candidate was first evaluated — so
    observers see a byte-identical event sequence whether a result was
    computed or replayed.

    Quarantined results (``failure is not None``) are never stored: a
    timeout or crash under one pool's deadline is not a property of the
    candidate text alone, and a retry must re-evaluate.

    Persistent tier
    ---------------

    With a ``store`` attached (:class:`repro.cache.PersistentEvalCache`,
    opened via :func:`open_eval_store`), a memory miss falls through to
    disk: entries are keyed by the candidate hash *combined with*
    ``context`` (:func:`eval_context_digest`), so results computed under
    one testbench/oracle/config can never alias another's.  Disk hits
    are promoted into the memory tier and counted in ``store_hits``.
    Every backend computes the same result for a candidate, so an entry
    written by one backend replays bit-identically on any other.
    """

    __slots__ = (
        "capacity", "hits", "misses", "store_hits", "_entries", "_store", "_context",
    )

    def __init__(
        self,
        capacity: int,
        store: PersistentEvalCache | None = None,
        context: str = "",
    ):
        #: Maximum retained results; 0 disables the cache entirely
        #: (both tiers).
        self.capacity = max(0, int(capacity))
        self.hits = 0
        self.misses = 0
        #: Hits served from the persistent tier (disjoint from ``hits``).
        self.store_hits = 0
        self._entries: OrderedDict[bytes, CandidateResult] = OrderedDict()
        self._store = store
        self._context = context

    @staticmethod
    def key(design_text: str) -> bytes:
        """Content address: SHA-256 of the candidate source text."""
        return hashlib.sha256(design_text.encode("utf-8")).digest()

    def store_key(self, design_text: str) -> str:
        """Persistent-tier key: context digest x candidate digest."""
        return hashlib.sha256(
            self._context.encode("ascii") + self.key(design_text)
        ).hexdigest()

    def get(self, design_text: str) -> CandidateResult | None:
        """Return the recorded result for ``design_text``, or None."""
        if self.capacity == 0:
            return None
        key = self.key(design_text)
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return result
        result = self._from_store(design_text)
        if result is None:
            self.misses += 1
            return None
        self.store_hits += 1
        self._insert(key, result)
        return result

    def put(self, design_text: str, result: CandidateResult) -> None:
        """Record a result (quarantined results are never cached)."""
        if self.capacity == 0 or result.failure is not None:
            return
        self._insert(self.key(design_text), result)
        if self._store is not None:
            self._store.put(self.store_key(design_text), encode_eval_payload(result))

    def info(self) -> dict[str, object]:
        """Hit/miss counters and occupancy (for benchmarks and tests)."""
        info: dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "store_hits": self.store_hits,
            "size": len(self._entries),
            "capacity": self.capacity,
        }
        if self._store is not None:
            info["store"] = self._store.info()
        return info

    # -- internals -----------------------------------------------------

    def _insert(self, key: bytes, result: CandidateResult) -> None:
        """Admit one entry to the memory tier (LRU position: newest)."""
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _from_store(self, design_text: str) -> CandidateResult | None:
        """Look one candidate up in the persistent tier (may be absent)."""
        if self._store is None:
            return None
        payload = self._store.get(self.store_key(design_text))
        if payload is None:
            return None
        return decode_eval_payload(payload)


# ----------------------------------------------------------------------
# Backend interface and implementations
# ----------------------------------------------------------------------


class EvaluationBackend(Protocol):
    """Interface the engine uses to score batches of candidate designs.

    Implementations must preserve input order: ``evaluate_batch(texts)[i]``
    is the result for ``texts[i]``.  The engine relies on this (plus its
    own child-index-ordered submission) for seed determinism.  Each
    element is a :data:`Candidate`; a backend may score a triple from its
    tree or its edit list, and must return what scoring the text
    returns.  Backends are
    context managers (``with make_backend(...) as backend:``) whose exit
    calls :meth:`close`.
    """

    def evaluate_batch(self, design_texts: Sequence[Candidate]) -> list[CandidateResult]:
        """Evaluate every candidate and return results in input order."""
        ...  # pragma: no cover - protocol

    def take_incidents(self) -> list[SupervisionIncident]:
        """Drain and return supervision incidents since the last drain."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any resources (worker processes) held by the backend."""
        ...  # pragma: no cover - protocol

    def __enter__(self) -> "EvaluationBackend":
        """Enter the backend's lifecycle scope."""
        ...  # pragma: no cover - protocol

    def __exit__(self, *exc_info: object) -> None:
        """Close the backend on scope exit."""
        ...  # pragma: no cover - protocol


class SerialBackend:
    """Evaluates candidates inline in the calling process.

    This is the original CirFix behaviour and the default.  A candidate
    that comes with its tree is compiled from the tree, unparsed.  Its
    results are the same compact results the pool returns.
    """

    def __init__(
        self,
        testbench: ast.Source,
        oracle: SimulationTrace,
        config: RepairConfig,
        testbench_text: str | None = None,
    ):
        self.testbench = testbench
        self.oracle = oracle
        self.config = config
        store = open_eval_store(config)
        context = ""
        if store is not None:
            # The persistent tier keys on the testbench text; regenerate
            # it from the tree only when a caller did not hand it over
            # (and only when the tier is actually enabled).
            if testbench_text is None:
                testbench_text = generate(testbench)
            context = eval_context_digest(testbench_text, oracle, config)
        self.cache = EvalCache(config.eval_cache_size, store=store, context=context)

    @staticmethod
    def for_problem(problem: "RepairProblem", config: RepairConfig) -> "SerialBackend":
        """Build a serial backend for a :class:`RepairProblem`."""
        return SerialBackend(
            problem.testbench, problem.oracle, config,
            testbench_text=problem.testbench_text,
        )

    def evaluate_batch(self, design_texts: Sequence[Candidate]) -> list[CandidateResult]:
        """Evaluate the batch one candidate at a time, in order."""
        results: list[CandidateResult] = []
        for candidate in design_texts:
            text, tree, _ = _unpack(candidate)
            cached = self.cache.get(text)
            if cached is not None:
                results.append(cached)
                continue
            result = evaluate_design_text(
                text, self.testbench, self.oracle, self.config, tree
            )
            self.cache.put(text, result)
            results.append(result)
        return results

    def take_incidents(self) -> list[SupervisionIncident]:
        """Serial evaluation is unsupervised: there are never incidents."""
        return []

    def close(self) -> None:
        """No resources to release."""

    def __enter__(self) -> "SerialBackend":
        """Support ``with SerialBackend(...) as backend:``."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Nothing to release."""
        self.close()


# ----------------------------------------------------------------------
# Test-only chaos faults (docs/fuzzing.md "chaos smoke")
# ----------------------------------------------------------------------

#: Environment variable carrying a chaos spec (e.g. ``hang@3,exit@7:once``).
CHAOS_ENV = "REPRO_EVAL_CHAOS"

#: Plantable chaos fault kinds (see :func:`parse_chaos_spec`).
CHAOS_KINDS = ("hang", "exit", "balloon")

#: In-process chaos plan override, installed by
#: :func:`repro.fuzz.faults.plant_eval_chaos` (None = consult the env var).
_CHAOS_PLAN_OVERRIDE: dict[int, tuple[str, bool]] | None = None

#: Bytes the chaos balloon allocates per step / max steps without an
#: ``RLIMIT_AS`` sandbox (a ~2 GiB backstop before self-reporting OOM).
_BALLOON_STEP_BYTES = 32 << 20
_BALLOON_MAX_STEPS = 64


def parse_chaos_spec(spec: str) -> dict[int, tuple[str, bool]]:
    """Parse ``"hang@3,exit@7:once"`` into ``{ordinal: (kind, once)}``.

    Ordinals count the supervised pool's task dispatches (0-based, per
    backend instance, first attempts only) — a deterministic position in
    the engine's evaluation schedule, where an engine's unpatched design
    is its first dispatch.  A ``:once`` suffix plants the fault on the
    first attempt only, so the retry succeeds (for testing the requeue
    path); without it every retry re-triggers the fault and the
    candidate is quarantined.
    """
    plan: dict[int, tuple[str, bool]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        once = part.endswith(":once")
        if once:
            part = part[: -len(":once")]
        kind, sep, ordinal = part.partition("@")
        if not sep or kind not in CHAOS_KINDS:
            raise ValueError(
                f"bad chaos spec entry {part!r} "
                f"(expected kind@ordinal with kind in {', '.join(CHAOS_KINDS)})"
            )
        # int() alone is too permissive here: it would accept "1_0", "-1",
        # and " 3" (silently planting the wrong ordinal) and raise a bare
        # ValueError for "hang@" or "exit@5:twice" that never names the
        # offending entry.
        if not (ordinal.isascii() and ordinal.isdigit()):
            raise ValueError(
                f"bad chaos spec entry {part!r} "
                f"(ordinal must be a non-negative decimal integer, "
                f"got {ordinal!r})"
            )
        plan[int(ordinal)] = (kind, once)
    return plan


def set_chaos_plan(
    plan: dict[int, tuple[str, bool]] | None,
) -> dict[int, tuple[str, bool]] | None:
    """Install (or clear, with None) the chaos plan; returns the old one.

    Test-only: prefer the :func:`repro.fuzz.faults.plant_eval_chaos`
    context manager, which restores the previous plan on exit.  The plan
    is snapshotted by :class:`ProcessPoolBackend` at construction.
    """
    global _CHAOS_PLAN_OVERRIDE
    previous = _CHAOS_PLAN_OVERRIDE
    _CHAOS_PLAN_OVERRIDE = plan
    return previous


def _active_chaos_plan() -> dict[int, tuple[str, bool]]:
    """The chaos plan in force (override, else env var, else empty)."""
    if _CHAOS_PLAN_OVERRIDE is not None:
        return dict(_CHAOS_PLAN_OVERRIDE)
    spec = os.environ.get(CHAOS_ENV, "")
    if not spec:
        return {}
    try:
        return parse_chaos_spec(spec)
    except ValueError as exc:
        logger.warning("ignoring malformed %s (%s)", CHAOS_ENV, exc)
        return {}


def _trigger_chaos(kind: str) -> None:
    """Worker-side: misbehave like a pathological mutant (test-only)."""
    if kind == "hang":
        while True:  # killed by the supervisor's deadline
            time.sleep(0.1)
    elif kind == "exit":
        os._exit(43)  # hard worker death, bypassing all cleanup
    elif kind == "balloon":
        hog = []
        while len(hog) < _BALLOON_MAX_STEPS:  # RLIMIT_AS usually trips first
            hog.append(bytearray(_BALLOON_STEP_BYTES))
        raise MemoryError("chaos balloon reached its allocation backstop")


# ----------------------------------------------------------------------
# Supervised worker processes
# ----------------------------------------------------------------------

#: Recursion-limit ceiling applied in workers (sandbox: a runaway-deep
#: mutant raises RecursionError instead of exhausting the C stack).
_WORKER_RECURSION_LIMIT = 20_000

#: Seconds close() waits for a graceful worker shutdown before escalating
#: to terminate()/kill().
_CLOSE_GRACE_SECONDS = 2.0

#: Seconds to wait for a killed worker to be reaped.
_REAP_TIMEOUT_SECONDS = 2.0


def _sandbox_worker(config: RepairConfig) -> None:
    """Apply per-worker resource limits (worker-side, at init).

    Bounds the recursion limit, and with ``config.worker_mem_mb > 0``
    caps the worker's address-space *growth* via ``RLIMIT_AS`` so a
    memory-ballooning mutant raises ``MemoryError`` inside the worker
    (reported as a contained ``oom`` failure) instead of taking down the
    host.  The cap is relative — current address space at worker init
    plus ``worker_mem_mb`` of headroom — because a forked worker inherits
    the parent's full image: an absolute cap smaller than that image
    would make ordinary allocations fail, with the effective budget
    depending on how much memory the *parent* happened to be using.
    Best-effort: platforms without ``resource`` (or ``/proc/self/statm``)
    skip or approximate the cap.
    """
    sys.setrecursionlimit(min(sys.getrecursionlimit(), _WORKER_RECURSION_LIMIT))
    if config.worker_mem_mb > 0:
        try:
            import resource

            limit = _current_address_space() + (int(config.worker_mem_mb) << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):  # pragma: no cover - platform
            logger.warning("worker_mem_mb set but RLIMIT_AS unavailable; skipping")


def _current_address_space() -> int:
    """This process's mapped address space in bytes (0 if unknown)."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[0])
        return pages * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):  # pragma: no cover - platform
        return 0


def _worker_main(
    conn: multiprocessing.connection.Connection,
    testbench_text: str,
    oracle: SimulationTrace,
    config: RepairConfig,
    design: ast.Source | None,
) -> None:
    """Supervised worker loop: recv one task, evaluate, send one result.

    The worker indexes the problem's ``design`` once; a task that ships
    an edit list is scored from the edits applied to that index, any
    other from its parsed text.

    Messages in: ``None`` (shutdown) or ``(design_text, edits,
    chaos_kind)``, with ``edits`` None for a candidate shipped as text.
    Messages out: ``("ok", CandidateResult)`` or ``("fail", kind)`` for
    failures contained inside the worker (``oom`` for ``MemoryError``,
    ``crash`` for anything else that escapes the pipeline's guards,
    such as an edit list that does not apply).
    """
    _sandbox_worker(config)
    testbench = parse(testbench_text)
    index = VariantIndex(design) if design is not None else None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        text, edits, chaos = task
        try:
            if chaos is not None:
                _trigger_chaos(chaos)
            tree = None
            if edits is not None:
                tree = functools.partial(_apply_edits, edits, index)
            result = evaluate_design_text(text, testbench, oracle, config, tree)
            conn.send(("ok", result))
        except MemoryError:
            _report_failure(conn, "oom")
        except Exception:
            _report_failure(conn, "crash")


def _apply_edits(edits: list[Edit], index: VariantIndex) -> ast.Source:
    """Worker-side: the tree a shipped edit list makes of the design
    (fresh ids start above ``index.max_id``, as in the engine)."""
    return Patch(edits).apply(index)


def _report_failure(conn: multiprocessing.connection.Connection, kind: str) -> None:
    """Worker-side: report a contained failure, or die visibly trying."""
    try:
        conn.send(("fail", kind))
    except Exception:  # pragma: no cover - pipe already broken
        os._exit(1)  # the supervisor will see the death instead


@dataclass
class _Task:
    """One candidate queued for supervised evaluation."""

    #: Position in the batch (``results[index]`` receives the outcome).
    index: int
    #: The candidate design text to score.
    text: str
    #: The candidate's tree, or None; only the inline fallback scores it.
    tree: ast.Source | None = None
    #: The edit list shipped to the worker in place of a parse, or None.
    edits: Sequence[Edit] | None = None
    #: Planted chaos fault ``(kind, once)``, or None (the normal case).
    chaos: tuple[str, bool] | None = None
    #: Dispatch attempts made so far (incremented on assignment).
    attempts: int = 0


class _Worker:
    """One supervised worker process plus its duplex task pipe."""

    __slots__ = ("conn", "process", "task", "deadline")

    def __init__(self, ctx: multiprocessing.context.BaseContext, init_args: tuple):
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, *init_args), daemon=True
        )
        self.process.start()
        # Close the child's end in the parent so a dead worker surfaces
        # as EOF on our end of the pipe.
        child_conn.close()
        #: The in-flight :class:`_Task`, or None when idle.
        self.task: _Task | None = None
        #: Monotonic deadline for the in-flight task (None = no deadline).
        self.deadline: float | None = None

    @property
    def idle(self) -> bool:
        """True when no task is in flight on this worker."""
        return self.task is None


def _mp_context() -> multiprocessing.context.BaseContext:
    """The preferred multiprocessing context (fork where available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessPoolBackend:
    """A supervised pool of worker processes scoring candidates in parallel.

    Workers parse the instrumented testbench, load the oracle and, given
    the problem's design, index it once at initialisation.  A task ships
    an exact candidate's edit list, which the worker applies to its
    index, or else the candidate's text, which it parses; each result
    ships only ``(fitness, compiled, mismatch)`` plus telemetry.  A pool
    built with a design serves only runs on that design (an engine given
    it for another raises ``ValueError``); one built without a design
    ships every candidate's text, and serves any design scored against
    its testbench and oracle.  The pool persists across generations
    (and across seeds, when shared via :func:`repro.core.repair.repair`),
    so the per-candidate overhead is one pickle round-trip, not a
    process spawn.

    Unlike a blocking ``pool.map``, dispatch is per task under a
    supervisor: deadlines, crash detection, respawn, bounded retries,
    and quarantine (module docstring, "Fault tolerance").  Results are
    keyed by batch index, so input order is preserved regardless of
    completion order — with no faults the output is bit-identical to the
    serial backend's.
    """

    def __init__(
        self,
        testbench_text: str,
        oracle: SimulationTrace,
        config: RepairConfig,
        workers: int = 2,
        design: ast.Source | None = None,
    ):
        self.workers = max(1, int(workers))
        self.config = config
        self.oracle = oracle
        self._testbench_text = testbench_text
        self._testbench_tree: ast.Source | None = None  # for inline fallback
        #: The design the workers apply edit lists to, or None (every
        #: candidate ships as text).  A pool with a design serves only
        #: runs on that design (see :class:`~repro.core.harness.EngineHarness`).
        self.design = design
        self._init_args = (testbench_text, oracle, config, design)
        store = open_eval_store(config)
        context = (
            eval_context_digest(testbench_text, oracle, config)
            if store is not None
            else ""
        )
        self.cache = EvalCache(config.eval_cache_size, store=store, context=context)
        self._ctx = _mp_context()
        self._incidents: list[SupervisionIncident] = []
        #: Task dispatch counter (first attempts only) — the ordinal the
        #: chaos plan keys on; deterministic given the engine's schedule.
        self._dispatch_ordinal = 0
        self._chaos_plan = _active_chaos_plan()
        self._workers: list[_Worker] | None = None
        spawned: list[_Worker] = []
        try:
            for _ in range(self.workers):
                spawned.append(_Worker(self._ctx, self._init_args))
        except BaseException:
            for worker in spawned:
                _discard_worker(worker)
            raise
        self._workers = spawned

    @staticmethod
    def for_problem(
        problem: "RepairProblem", config: RepairConfig, workers: int | None = None
    ) -> "ProcessPoolBackend":
        """Build a pool backend for a :class:`RepairProblem`; its workers
        apply exact candidates' edit lists to the problem's design, so it
        serves only runs on that design."""
        return ProcessPoolBackend(
            problem.testbench_text,
            problem.oracle,
            config,
            workers if workers is not None else config.workers,
            design=problem.design,
        )

    # ------------------------------------------------------------------
    # Batch evaluation under supervision
    # ------------------------------------------------------------------

    def evaluate_batch(self, design_texts: Sequence[Candidate]) -> list[CandidateResult]:
        """Fan the batch out over the pool; results come back in order.

        Workers receive an exact candidate's edit list and apply it to
        the design, and parse any other candidate's text.

        Each candidate is dispatched as its own task (workers are
        load-balanced — a non-compiling mutant is ~100x cheaper than a
        full simulation, so larger chunks would serialise behind
        stragglers) and supervised against the configured deadline and
        retry budget.  Every input slot is always filled: a candidate
        that exhausts its retries comes back as a quarantined
        :class:`EvalFailure` result.
        """
        if self._workers is None:
            raise RuntimeError("ProcessPoolBackend used after close()")
        texts = [candidate_text(candidate) for candidate in design_texts]
        if not texts:
            return []
        results: list[CandidateResult | None] = [None] * len(texts)
        pending: deque[_Task] = deque()
        misses: list[int] = []
        for i, candidate in enumerate(design_texts):
            text, tree, edits = _unpack(candidate)
            cached = self.cache.get(text)
            if cached is not None:
                results[i] = cached
                continue
            misses.append(i)
            chaos = self._chaos_plan.get(self._dispatch_ordinal)
            self._dispatch_ordinal += 1
            if self.design is None:
                edits = None
            pending.append(_Task(i, text, tree, edits, chaos))
        if pending:
            self._supervise(pending, results)
        for i in misses:
            result = results[i]
            if result is not None:
                self.cache.put(texts[i], result)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def take_incidents(self) -> list[SupervisionIncident]:
        """Drain the supervision incidents recorded since the last drain."""
        incidents, self._incidents = self._incidents, []
        return incidents

    # -- supervisor internals ------------------------------------------

    def _supervise(
        self, pending: deque[_Task], results: list[CandidateResult | None]
    ) -> None:
        """Drive tasks to completion: assign, wait, collect, recover."""
        workers = self._workers
        assert workers is not None
        while pending or any(not w.idle for w in workers):
            if not workers:
                # Could not respawn a single worker: never wedge — finish
                # the batch inline (no sandbox/deadline, but no faults
                # either outside deliberate chaos runs).
                self._evaluate_inline(pending, results)
                return
            for worker in workers:
                if not pending:
                    break
                if worker.idle:
                    task = pending.popleft()
                    if not self._assign(worker, task):
                        self._recover(worker, task, "crash", pending, results)
            busy = [w for w in workers if not w.idle]
            if not busy:
                continue
            ready = self._wait_on(busy)
            now = time.monotonic()
            for worker in busy:
                if worker.conn in ready:
                    self._collect(worker, pending, results)
                elif worker.process.sentinel in ready or not worker.process.is_alive():
                    task = worker.task
                    assert task is not None
                    self._recover(worker, task, None, pending, results)
                elif worker.deadline is not None and now >= worker.deadline:
                    task = worker.task
                    assert task is not None
                    worker.process.kill()
                    self._recover(worker, task, "timeout", pending, results)

    def _assign(self, worker: _Worker, task: _Task) -> bool:
        """Send one task to an idle worker; False if the pipe is broken."""
        task.attempts += 1
        chaos_kind: str | None = None
        if task.chaos is not None:
            kind, once = task.chaos
            if not once or task.attempts == 1:
                chaos_kind = kind
        try:
            worker.conn.send((task.text, task.edits, chaos_kind))
        except (OSError, ValueError):
            return False
        worker.task = task
        deadline_s = self.config.eval_deadline_seconds
        worker.deadline = (
            time.monotonic() + deadline_s if deadline_s > 0 else None
        )
        return True

    def _wait_on(self, busy: list[_Worker]) -> set[object]:
        """Block until a result, a worker death, or the nearest deadline."""
        timeout: float | None = None
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        handles = [w.conn for w in busy] + [w.process.sentinel for w in busy]
        return set(multiprocessing.connection.wait(handles, timeout))

    def _collect(
        self,
        worker: _Worker,
        pending: deque[_Task],
        results: list[CandidateResult | None],
    ) -> None:
        """Read one worker message (result or contained failure)."""
        task = worker.task
        assert task is not None
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._recover(worker, task, None, pending, results)
            return
        worker.task = None
        worker.deadline = None
        status, payload = message
        if status == "ok":
            results[task.index] = payload
        else:
            # Contained worker-side failure ("oom"/"crash"): the worker
            # survives, only the candidate is retried or quarantined.
            self._fail_task(task, payload, None, pending, results)

    def _recover(
        self,
        worker: _Worker,
        task: _Task,
        kind: str | None,
        pending: deque[_Task],
        results: list[CandidateResult | None],
    ) -> None:
        """Replace a dead/killed worker and retry or quarantine its task.

        ``kind`` is ``"timeout"`` / ``"crash"`` when the supervisor knows
        why; None classifies from the exit code (SIGKILL without a
        deadline expiry reads as the OOM killer → ``"oom"``).
        """
        workers = self._workers
        assert workers is not None
        exitcode = _reap(worker)
        if worker in workers:
            workers.remove(worker)
        if kind is None:
            kind = "oom" if exitcode == -9 else "crash"
        try:
            workers.append(_Worker(self._ctx, self._init_args))
        except (OSError, ValueError):
            logger.warning(
                "could not respawn an evaluation worker (%d left)", len(workers)
            )
        self._fail_task(task, kind, exitcode, pending, results)

    def _fail_task(
        self,
        task: _Task,
        kind: str,
        exitcode: int | None,
        pending: deque[_Task],
        results: list[CandidateResult | None],
    ) -> None:
        """Requeue a failed task, or quarantine it when retries are spent."""
        quarantined = task.attempts > self.config.eval_max_retries
        self._incidents.append(
            SupervisionIncident(kind, task.attempts, quarantined, exitcode)
        )
        logger.warning(
            "candidate evaluation %s (attempt %d): %s",
            kind, task.attempts,
            "quarantined" if quarantined else "requeued",
        )
        if quarantined:
            results[task.index] = _quarantine_result(kind, task.attempts)
        else:
            pending.append(task)

    def _evaluate_inline(
        self, pending: deque[_Task], results: list[CandidateResult | None]
    ) -> None:
        """Last-resort serial fallback when no worker can be spawned:
        score each task's tree when it has one, else parse its text."""
        logger.warning(
            "no evaluation workers available; finishing the batch inline"
        )
        if self._testbench_tree is None:
            self._testbench_tree = parse(self._testbench_text)
        while pending:
            task = pending.popleft()
            results[task.index] = evaluate_design_text(
                task.text, self._testbench_tree, self.oracle, self.config, task.tree
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down gracefully, escalating only on a timeout.

        Workers receive a shutdown sentinel and get a short grace period
        to drain and exit on their own (so a normal shutdown never
        discards in-flight state); stragglers are terminated, then
        killed.  Idempotent.
        """
        workers, self._workers = self._workers, None
        if workers is None:
            return
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _CLOSE_GRACE_SECONDS
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            _discard_worker(worker)

    def __enter__(self) -> "ProcessPoolBackend":
        """Support ``with ProcessPoolBackend(...) as backend:``."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the pool on scope exit."""
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def _reap(worker: _Worker) -> int | None:
    """Join (escalating to kill) one worker and close its pipe."""
    process = worker.process
    if process.is_alive():
        process.join(_REAP_TIMEOUT_SECONDS)
        if process.is_alive():
            process.kill()
            process.join(_REAP_TIMEOUT_SECONDS)
    try:
        worker.conn.close()
    except (OSError, ValueError):  # pragma: no cover - already closed
        pass
    return process.exitcode


def _discard_worker(worker: _Worker) -> None:
    """Terminate-then-kill one worker during shutdown (best-effort)."""
    process = worker.process
    if process.is_alive():
        process.terminate()
        process.join(_REAP_TIMEOUT_SECONDS)
        if process.is_alive():  # pragma: no cover - stubborn worker
            process.kill()
            process.join(_REAP_TIMEOUT_SECONDS)
    try:
        worker.conn.close()
    except (OSError, ValueError):  # pragma: no cover - already closed
        pass


def make_backend(problem: "RepairProblem", config: RepairConfig) -> EvaluationBackend:
    """Build the evaluation backend selected by ``config``.

    ``config.backend`` is ``"serial"``, ``"process"``, or ``"auto"``
    (pool when ``config.workers > 1``, serial otherwise); any other name
    raises ``ValueError``.  If the host cannot start worker processes —
    including a caller that is itself a daemonic worker process, which
    may not spawn children — the pool silently degrades to a
    :class:`SerialBackend`: results are identical, only slower.
    """
    choice = config.backend
    workers = max(1, config.workers)
    if choice not in BACKEND_NAMES:
        raise ValueError(
            f"unknown evaluation backend {choice!r}; "
            f"valid backends: {', '.join(BACKEND_NAMES)}"
        )
    if choice == "serial" or (choice == "auto" and workers <= 1):
        return SerialBackend.for_problem(problem, config)
    if multiprocessing.current_process().daemon:
        logger.warning("already inside a worker process; evaluating serially")
        return SerialBackend.for_problem(problem, config)
    try:
        return ProcessPoolBackend.for_problem(problem, config, workers)
    except (OSError, ValueError, ImportError, AssertionError) as exc:
        logger.warning("process pool unavailable (%s); falling back to serial", exc)
        return SerialBackend.for_problem(problem, config)
