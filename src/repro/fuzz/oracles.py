"""Differential and metamorphic oracles for generated programs.

Each check takes a :class:`~repro.fuzz.generator.GeneratedProgram` (or
raw source text) and returns a list of :class:`Violation` — empty when
the property holds.  The oracle battery (ISSUE 3):

``roundtrip``
    parse → codegen → re-parse is a structural fixpoint with stable
    preorder node numbering.
``lint``
    static analysis (:mod:`repro.lint`) never raises on a parseable
    program and renders byte-identical reports across runs.
``determinism``
    simulating the same program twice is bit-identical (time, $finish,
    output lines, recorded trace CSV), and the program scores fitness
    1.0 against its own trace (the *self-fitness* differential: the
    evaluation pipeline agrees with the direct simulation).
``backends``
    ``SerialBackend`` and ``ProcessPoolBackend`` report identical
    backend-independent results for the same candidate.
``engines``
    the tree-walking interpreter and the AOT closure compiler
    (:class:`repro.sim.CompiledSimulator`) produce bit-identical runs —
    time, output, trace CSV, errors, *and* the statement/event/slot
    counters — for the same program (``docs/simulation.md``).
``templates``
    every repair template applied to every legal target yields source
    that re-parses (operator closure) as the mutant's own tree, unless
    strict codegen reports the tree inexact; a strided subset of mutants
    is also pushed through the full evaluation pipeline, which must not
    raise, once from the text and once from the tree, with equal
    results.
``logic``
    4-state ops satisfy commutativity and x-pessimism monotonicity
    (:mod:`repro.fuzz.logic_props`; checked once per run, not per
    program).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.backend import ProcessPoolBackend, SerialBackend, evaluate_design_text
from ..core.config import RepairConfig
from ..core.templates import applicable_templates, apply_template
from ..core.templates_ext import applicable_extended
from ..hdl import InexactCodegen, ast, generate, max_node_id, parse, structural_diff
from ..instrument.trace import SimulationTrace
from ..sim.compile import CompiledSimulator
from ..sim.elaborate import ElaborationError
from ..sim.simulator import SimResult, Simulator
from .generator import TB_NAME, GeneratedProgram

#: Names of the per-program oracles, in check order.
ORACLES = ("roundtrip", "lint", "determinism", "engines", "backends", "templates")

#: Simulation budgets for fuzz evaluations (programs finish in a few
#: hundred ticks; anything longer is a runaway worth cutting short).
FUZZ_EVAL_CONFIG = RepairConfig(max_sim_time=20_000, max_sim_steps=200_000)


@dataclass(frozen=True)
class Violation:
    """One oracle failure for one program."""

    oracle: str
    detail: str


def split_program(text: str) -> tuple[str, str]:
    """Split a single-file program into (design_text, testbench_text).

    The testbench is the module named ``fuzz_tb`` when present, else the
    last module; everything else is the design.  Used to re-run the
    simulation oracles on checked-in corpus files.
    """
    tree = parse(text)
    modules = list(tree.modules)
    tb = next((m for m in modules if m.name == TB_NAME), modules[-1])
    design = [m for m in modules if m is not tb]
    return (
        generate(ast.Source(design)) if design else "",
        generate(ast.Source([tb])),
    )


# ----------------------------------------------------------------------
# (a) round-trip
# ----------------------------------------------------------------------


def check_roundtrip(text: str, reference: ast.Source | None = None) -> list[Violation]:
    """parse → codegen → re-parse must be a numbered structural fixpoint.

    With ``reference`` (the generator's pre-codegen AST), additionally
    require ``parse(text)`` to match it structurally — the differential
    that exposes systematic codegen faults, which otherwise produce
    valid-but-different text that is its own stable fixpoint.
    """
    try:
        first = parse(text)
    except Exception as exc:
        return [Violation("roundtrip", f"initial parse failed: {exc}")]
    if reference is not None:
        diff = structural_diff(reference, first, compare_ids=False)
        if diff is not None:
            return [
                Violation(
                    "roundtrip",
                    f"emitted text parses differently than the generator's "
                    f"AST at {diff}",
                )
            ]
    try:
        regenerated = generate(first)
    except Exception as exc:
        return [Violation("roundtrip", f"codegen failed: {exc}")]
    try:
        second = parse(regenerated)
    except Exception as exc:
        return [Violation("roundtrip", f"re-parse failed: {exc}")]
    diff = structural_diff(first, second, compare_ids=True)
    if diff is not None:
        return [Violation("roundtrip", f"AST mismatch at {diff}")]
    try:
        if generate(second) != regenerated:
            return [Violation("roundtrip", "codegen not a fixpoint")]
    except Exception as exc:
        return [Violation("roundtrip", f"second codegen failed: {exc}")]
    return []


# ----------------------------------------------------------------------
# (b) simulation determinism + self-fitness
# ----------------------------------------------------------------------


def _sim_key(result: SimResult) -> tuple:
    """Everything observable about a run except wall-clock."""
    return (
        result.time,
        result.finished,
        tuple(result.output),
        SimulationTrace.from_records(result.trace).to_csv(),
        tuple(result.errors),
    )


def _simulate(text: str) -> SimResult:
    sim = Simulator(text, max_steps=FUZZ_EVAL_CONFIG.max_sim_steps)
    return sim.run(FUZZ_EVAL_CONFIG.max_sim_time)


def check_determinism(
    program: GeneratedProgram, backend: str = "serial", workers: int = 2
) -> tuple[list[Violation], SimulationTrace | None]:
    """Two simulations agree; the program scores 1.0 against itself.

    The self-fitness evaluation runs through the selected evaluation
    path: in-process ``evaluate_design_text`` (``backend="serial"``) or
    a :class:`ProcessPoolBackend` (``backend="process"``) — both must
    report the same backend-independent result, which is what makes
    fixed-seed fuzz summaries byte-identical across backends.

    Returns the violations plus the program's own trace (the *self
    oracle*) for reuse by the other simulation-based checks.
    """
    violations: list[Violation] = []
    try:
        first = _simulate(program.text)
        second = _simulate(program.text)
    except Exception as exc:
        return [Violation("determinism", f"simulation raised: {exc!r}")], None
    if _sim_key(first) != _sim_key(second):
        violations.append(
            Violation("determinism", "repeated simulation not bit-identical")
        )
    oracle = SimulationTrace.from_records(first.trace)
    if not first.finished or len(oracle) == 0:
        # No anchor for the fitness differential — determinism was still
        # checked above.
        return violations, (oracle if len(oracle) else None)
    try:
        if backend == "process":
            pool = ProcessPoolBackend(
                program.testbench_text, oracle, FUZZ_EVAL_CONFIG, workers=workers
            )
            try:
                result_a = pool.evaluate_batch([program.design_text])[0]
                result_b = pool.evaluate_batch([program.design_text])[0]
            finally:
                pool.close()
        else:
            tb_tree = parse(program.testbench_text)
            result_a = evaluate_design_text(
                program.design_text, tb_tree, oracle, FUZZ_EVAL_CONFIG
            )
            result_b = evaluate_design_text(
                program.design_text, tb_tree, oracle, FUZZ_EVAL_CONFIG
            )
    except Exception as exc:
        violations.append(
            Violation("determinism", f"evaluation pipeline raised: {exc!r}")
        )
        return violations, oracle
    if not result_a.compiled:
        violations.append(
            Violation("determinism", "self-evaluation reports compiled=False")
        )
    elif result_a.fitness != 1.0:
        violations.append(
            Violation(
                "determinism",
                f"self-fitness {result_a.fitness} != 1.0 "
                f"(mismatched: {result_a.mismatch if result_a.mismatch is not None else '?'})",
            )
        )
    if _result_key(result_a) != _result_key(result_b):
        violations.append(
            Violation("determinism", "repeated evaluation not bit-identical")
        )
    return violations, oracle


# ----------------------------------------------------------------------
# (b'') interp vs compiled engine equivalence
# ----------------------------------------------------------------------


def _engine_key(text: str, engine: type[Simulator]) -> tuple:
    """Run ``text`` under one engine; the full observable fingerprint."""
    sim = engine(text, max_steps=FUZZ_EVAL_CONFIG.max_sim_steps)
    result = sim.run(FUZZ_EVAL_CONFIG.max_sim_time)
    return (
        _sim_key(result),
        result.steps_used,
        result.events_executed,
        result.slots_advanced,
    )


def check_engines(text: str) -> list[Violation]:
    """Interpreted and compiled simulation race to bit-identical runs.

    The strongest form of the compiled engine's parity contract: not
    just the result surface (:func:`_sim_key`) but the execution
    counters — statements charged against the runaway budget, scheduler
    callbacks, time slots — must agree, since the repair engine's budget
    cut-offs (and therefore search outcomes) depend on them.  Programs
    that fail to elaborate must fail identically under both engines.
    """
    try:
        interp = _engine_key(text, Simulator)
        interp_error: str | None = None
    except ElaborationError as exc:
        interp, interp_error = None, str(exc)
    except Exception as exc:
        return [Violation("engines", f"interp simulation raised: {exc!r}")]
    try:
        compiled = _engine_key(text, CompiledSimulator)
        compiled_error: str | None = None
    except ElaborationError as exc:
        compiled, compiled_error = None, str(exc)
    except Exception as exc:
        return [Violation("engines", f"compiled simulation raised: {exc!r}")]
    if interp is None or compiled is None:
        if interp_error != compiled_error:
            return [
                Violation(
                    "engines",
                    f"elaboration divergence: interp "
                    f"{interp_error!r} != compiled {compiled_error!r}",
                )
            ]
        return []
    if interp != compiled:
        return [
            Violation(
                "engines",
                f"engine divergence: interp {interp} != compiled {compiled}",
            )
        ]
    return []


# ----------------------------------------------------------------------
# (b') serial vs process backend equivalence
# ----------------------------------------------------------------------


def _result_key(result) -> tuple:
    """Backend-independent fields of a ``CandidateResult``: every field
    but the telemetry and the pool-only ``failure``."""
    return (result.fitness, result.compiled, result.mismatch)


def check_backends(
    program: GeneratedProgram, oracle: SimulationTrace, workers: int = 2
) -> list[Violation]:
    """Serial and process-pool evaluation of the same candidate agree."""
    try:
        tb_tree = parse(program.testbench_text)
        serial = SerialBackend(tb_tree, oracle, FUZZ_EVAL_CONFIG)
        serial_results = serial.evaluate_batch([program.design_text])
        serial.close()
        pool = ProcessPoolBackend(
            program.testbench_text, oracle, FUZZ_EVAL_CONFIG, workers=workers
        )
        try:
            pool_results = pool.evaluate_batch([program.design_text])
        finally:
            pool.close()
    except Exception as exc:
        return [Violation("backends", f"backend evaluation raised: {exc!r}")]
    if _result_key(serial_results[0]) != _result_key(pool_results[0]):
        return [
            Violation(
                "backends",
                f"serial {_result_key(serial_results[0])} != "
                f"process {_result_key(pool_results[0])}",
            )
        ]
    return []


# ----------------------------------------------------------------------
# (c) repair-template operator closure
# ----------------------------------------------------------------------


def check_templates(
    program: GeneratedProgram,
    oracle: SimulationTrace | None,
    max_sim_mutants: int = 6,
) -> list[Violation]:
    """Every applicable template on every target yields parseable source.

    ``apply_template`` refusing a target (returning False) is fine — the
    patch conventions treat that as a no-op.  A mutant that *was*
    produced must re-parse, as a tree structurally equal to the mutant
    unless strict codegen reported the mutant inexact.  A deterministic
    strided subset (at most ``max_sim_mutants``) is also run through the
    never-raising evaluation pipeline, with any escape counting as a
    violation; an exact mutant is scored from its text and from its tree,
    and the two results must agree in every field but the timings.
    """
    violations: list[Violation] = []
    try:
        design = parse(program.design_text)
        tb_tree = parse(program.testbench_text) if oracle is not None else None
    except Exception as exc:
        return [Violation("templates", f"design parse failed: {exc}")]
    fresh = max_node_id(design) + 1000
    # (target_id, template, text, tree; None when codegen is inexact)
    mutants: list[tuple[int, str, str, ast.Source | None]] = []
    for node in design.walk():
        if node.node_id is None:
            continue
        names = applicable_templates(node) + applicable_extended(node)
        for name in names:
            clone = design.clone()
            try:
                applied = apply_template(name, clone, node.node_id, fresh)
            except Exception as exc:
                violations.append(
                    Violation(
                        "templates",
                        f"{name} on node {node.node_id} "
                        f"({type(node).__name__}) raised: {exc!r}",
                    )
                )
                continue
            if not applied:
                continue
            exact = True
            try:
                try:
                    mutant_text = generate(clone, strict=True)
                except InexactCodegen:
                    exact = False
                    mutant_text = generate(clone)
            except Exception as exc:
                violations.append(
                    Violation(
                        "templates",
                        f"{name} on node {node.node_id} broke codegen: {exc!r}",
                    )
                )
                continue
            try:
                reparsed = parse(mutant_text)
            except Exception as exc:
                violations.append(
                    Violation(
                        "templates",
                        f"{name} on node {node.node_id} "
                        f"({type(node).__name__}) no longer parses: {exc}",
                    )
                )
                continue
            diff = structural_diff(reparsed, clone) if exact else None
            if diff is not None:
                violations.append(
                    Violation(
                        "templates",
                        f"{name} on node {node.node_id} "
                        f"({type(node).__name__}) parses back as another "
                        f"tree: {diff}",
                    )
                )
                continue
            mutants.append((node.node_id, name, mutant_text, clone if exact else None))
    if oracle is not None and tb_tree is not None and mutants and max_sim_mutants > 0:
        stride = max(1, len(mutants) // max_sim_mutants)
        for target_id, name, mutant_text, tree in mutants[::stride][:max_sim_mutants]:
            try:
                from_text = evaluate_design_text(
                    mutant_text, tb_tree, oracle, FUZZ_EVAL_CONFIG
                )
                from_tree = from_text if tree is None else evaluate_design_text(
                    mutant_text, tb_tree, oracle, FUZZ_EVAL_CONFIG, tree
                )
            except Exception as exc:
                violations.append(
                    Violation(
                        "templates",
                        f"{name} on node {target_id}: evaluation pipeline "
                        f"raised {exc!r} (contract: never raises)",
                    )
                )
                continue
            if _untimed(from_tree) != _untimed(from_text):
                violations.append(
                    Violation(
                        "templates",
                        f"{name} on node {target_id}: scored from its tree "
                        f"{_untimed(from_tree)} != from its text "
                        f"{_untimed(from_text)}",
                    )
                )
    return violations


def check_candidate_roundtrip(
    tree: ast.Source, text: str, exact: bool
) -> list[Violation]:
    """An engine candidate's tree is scored only when it is the program
    its text is.

    ``exact`` is what the repair harness decided for the candidate
    (``EngineHarness._applied``).  When True the serial backend scores
    ``tree`` instead of parsing ``text``, so ``text`` must parse, as a
    tree equal to ``tree``.  When False strict codegen reported one of
    the shapes it cannot print faithfully and only the text is scored;
    then the text must indeed not parse back as ``tree``, or the report
    was a false alarm.
    """
    try:
        diff = structural_diff(parse(text), tree)
    except Exception as exc:
        if exact:
            return [Violation("candidates", f"scored tree's text does not parse: {exc}")]
        return []
    if exact and diff is not None:
        return [Violation("candidates", f"scored tree differs from its text's parse: {diff}")]
    if not exact and diff is None:
        return [Violation("candidates", "codegen reported an exact tree inexact")]
    return []


def _untimed(result):
    """A ``CandidateResult`` with its wall-clock fields zeroed."""
    return dataclasses.replace(
        result, eval_seconds=0.0, parse_seconds=0.0, sim_seconds=0.0
    )


# ----------------------------------------------------------------------
# (d) lint crash/stability oracle
# ----------------------------------------------------------------------


def check_lint(text: str) -> list[Violation]:
    """Lint never raises on a parseable program, and is byte-stable.

    The analyser must hold two contracts on anything that parses:
    ``check`` must not escape with an exception, and two runs over the
    same source must render byte-identical reports (text and JSON).
    """
    from ..lint import lint_text

    try:
        first = lint_text(text)
    except Exception as exc:
        return [
            Violation("lint", f"lint raised on a parseable program: {exc!r}")
        ]
    second = lint_text(text)
    if first.to_text() != second.to_text():
        return [Violation("lint", "two lint runs rendered different text reports")]
    if first.to_json() != second.to_json():
        return [Violation("lint", "two lint runs rendered different JSON reports")]
    return []
