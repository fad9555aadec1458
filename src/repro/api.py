"""High-level facade over the repro package (the stable entry points).

Callers — the CLI, the service daemon, the experiment drivers, notebooks
— should not need to know which internal module owns oracles, backends,
or fault localization.  This module collects the operations the paper's
pipeline is built from behind small functions:

- :func:`run_request` — execute one typed, versioned
  :class:`~repro.service.jobs.RepairRequest` (the canonical repair entry
  point; everything else funnels into it);
- :func:`repair_scenario` / :func:`repair_verilog` — convenience
  wrappers building a request from a benchmark scenario id or raw
  Verilog texts;
- :func:`localize` — Algorithm 2 on its own: score the faulty design
  once through the evaluation backend and return the implicated node
  set;
- :func:`simulate` — run a design (optionally under a testbench,
  optionally instrumented) and return the :class:`~repro.sim.SimResult`;
- :func:`lint` — static analysis (``repro.lint``) over a design source
  or AST, returning the :class:`~repro.lint.LintReport`;

plus the supporting constructors :func:`materialize_request` (request →
ready-to-run problem/config pair) and :func:`build_problem` (file-based,
the artifact's ``repair.conf`` workflow), a thin wrapper that reads its
files into a request and materializes it.

Every repair entry point accepts ``observers`` (:mod:`repro.obs`
instances receiving the engine's event stream — they never influence the
search), ``engine`` (a name registered in :mod:`repro.core.engines`;
built-ins are ``"cirfix"`` — the default GP loop — plus ``"synth"``
and ``"race"`` from :mod:`repro.synth`, see ``docs/synthesis.md``),
and ``cancel`` (a zero-argument callable polled cooperatively between
generations).

Compatibility: every argument of ``repair_scenario`` after the scenario,
and of ``repair_verilog`` after the three source texts, is keyword-only.
The deprecated positional ``config``/``seeds``/``observers`` forms were
removed in 2.0; passing them positionally raises :class:`TypeError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .core.backend import SerialBackend
from .core.config import RepairConfig
from .core.engines import DEFAULT_ENGINE, get_engine
from .core.faultloc import FaultLocalization, localize_faults
from .core.oracle import combine_sources, ensure_instrumented, generate_oracle
from .core.repair import RepairOutcome, RepairProblem
from .hdl import ast, generate, parse
from .instrument.trace import SimulationTrace
from .obs.observer import RepairObserver
from .service.jobs import RepairRequest
from .sim.simulator import SimResult, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .benchsuite import Scenario

__all__ = [
    "build_problem",
    "lint",
    "localize",
    "materialize_request",
    "repair_scenario",
    "repair_verilog",
    "run_request",
    "simulate",
]


def _as_source(design: "ast.Source | str") -> ast.Source:
    """Parse ``design`` if it is text; pass an AST through unchanged."""
    return parse(design) if isinstance(design, str) else design


#: Benchmark scenario id → its :class:`~repro.benchsuite.Scenario`,
#: loaded once per process (at most the 32 Table-3 ids).  Every job on
#: an id then shares one :class:`RepairProblem` (never mutated): its
#: trees are parsed and its testbench instrumented once, and the
#: evaluation backend's compiled testbench templates, keyed by the
#: testbench tree, are reused from job to job.
_BENCHMARK_SCENARIOS: dict[str, "Scenario"] = {}


def _as_problem(
    scenario: "str | object",
    config: RepairConfig,
) -> tuple[RepairProblem, RepairConfig]:
    """Resolve a scenario spec to ``(problem, scaled_config)``.

    Accepts a benchmark scenario id (``"dec_numeric"``),
    a :class:`~repro.benchsuite.Scenario`, or a ready
    :class:`RepairProblem` (returned unchanged, config unscaled).
    """
    if isinstance(scenario, RepairProblem):
        return scenario, config
    # Lazy import: the benchsuite loads all 32 scenarios' sources.
    from .benchsuite import Scenario, load_scenario

    if isinstance(scenario, str):
        scenario_id = scenario
        scenario = _BENCHMARK_SCENARIOS.get(scenario_id)
        if scenario is None:
            scenario = _BENCHMARK_SCENARIOS[scenario_id] = load_scenario(scenario_id)
    if not isinstance(scenario, Scenario):
        raise TypeError(
            "scenario must be a scenario id, a Scenario, or a RepairProblem "
            f"(got {type(scenario).__name__})"
        )
    return scenario.problem(), scenario.suggested_config(config)


def materialize_request(
    request: RepairRequest,
    base_config: RepairConfig | None = None,
) -> tuple[RepairProblem, RepairConfig]:
    """Turn a typed request into a ready-to-run ``(problem, config)``.

    Validates the request, applies its config overrides on top of
    ``base_config``, resolves the scenario id or parses the raw texts,
    and — for benchmark scenarios — applies the per-scenario simulation
    bounds (``Scenario.suggested_config``), exactly like a direct
    ``repro repair`` of the same inputs.
    """
    request.validate()
    config = request.resolved_config(base_config)
    if request.scenario:
        return _as_problem(request.scenario, config)
    faulty = parse(request.design)
    bench = parse(request.testbench)
    if request.golden:
        golden = parse(request.golden)
        bench = ensure_instrumented(bench, golden)
        oracle = generate_oracle(golden, bench)
    else:
        bench = ensure_instrumented(bench, faulty)
        oracle = SimulationTrace.from_csv(request.oracle_csv)
    return RepairProblem(faulty, bench, oracle), config


def run_request(
    request: RepairRequest,
    base_config: RepairConfig | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> RepairOutcome:
    """Execute one :class:`~repro.service.jobs.RepairRequest`.

    The canonical repair entry point: the service daemon, ``repro
    repair`` and the convenience wrappers below all funnel through here,
    so a request submitted over the service protocol, the same files
    repaired from the command line, and the same request run in-process
    produce bit-identical outcomes.  The daemon recovers a crashed job
    by calling it again with the same request (``docs/service.md``).
    """
    problem, config = materialize_request(request, base_config)
    runner = get_engine(request.engine)
    return runner(
        problem,
        config,
        request.seeds,
        observers=observers,
        cancel=cancel,
    )


def repair_scenario(
    scenario: "str | object",
    *,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    observers: Sequence[RepairObserver] | None = None,
    engine: str = DEFAULT_ENGINE,
    cancel: Callable[[], bool] | None = None,
) -> RepairOutcome:
    """Run repair trials on a scenario and return the chosen outcome.

    The first plausible trial wins; otherwise the best-fitness trial is
    returned.  Benchmark scenarios get their per-scenario simulation
    bounds applied via ``Scenario.suggested_config``.  ``scenario`` may
    be a benchmark id (routed through :func:`run_request`), or an
    in-memory :class:`~repro.benchsuite.Scenario` /
    :class:`RepairProblem` (the non-serializable escape hatch).
    """
    if isinstance(scenario, str):
        request = RepairRequest(
            scenario=scenario, seeds=tuple(seeds), engine=engine
        )
        return run_request(
            request, base_config=config, observers=observers, cancel=cancel
        )
    problem, scaled = _as_problem(scenario, config or RepairConfig())
    runner = get_engine(engine)
    return runner(problem, scaled, tuple(seeds), observers=observers, cancel=cancel)


def repair_verilog(
    faulty_design: str,
    testbench: str,
    golden_design: str,
    *,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    observers: Sequence[RepairObserver] | None = None,
    engine: str = DEFAULT_ENGINE,
    cancel: Callable[[], bool] | None = None,
) -> RepairOutcome:
    """One-call repair: oracle from the golden design, then run repair.

    Args:
        faulty_design: Verilog source of the design to repair.
        testbench: Verilog testbench (instrumented automatically if it has
            no ``$cirfix_record`` hook).
        golden_design: A previously-functioning version of the design used
            to generate the expected-behaviour trace (paper §4.1.2).
        config: Search budget; defaults to paper-style parameters — pass
            :data:`repro.core.config.TEST_CONFIG` or a custom config for
            laptop-scale runs.
        seeds: Independent trial seeds; the first plausible repair wins.
        observers: Optional :mod:`repro.obs` observers receiving the
            engine's event stream.
        engine: Registered repair engine name (default ``"cirfix"``).
        cancel: Optional cooperative cancel callable (polled between
            generations; True stops the search at the next boundary).

    Returns:
        The best :class:`RepairOutcome` across trials.
    """
    request = RepairRequest(
        design=faulty_design,
        testbench=testbench,
        golden=golden_design,
        seeds=tuple(seeds),
        engine=engine,
    )
    return run_request(
        request, base_config=config, observers=observers, cancel=cancel
    )


def build_problem(
    source: "str | Path",
    testbench: "str | Path",
    golden: "str | Path | None" = None,
    oracle: "str | Path | None" = None,
) -> RepairProblem:
    """Assemble a :class:`RepairProblem` from files (the artifact workflow).

    Exactly one oracle source is required: ``golden`` (a
    previously-functioning design, simulated to produce the expected
    trace) or ``oracle`` (an expected-behaviour CSV in the Figure 2
    shape).  Raises :class:`ValueError` when neither or both are given.
    The files become a raw-text :class:`RepairRequest`, materialized
    exactly as :func:`run_request` materializes it; the problem is named
    after ``source``.
    """
    if golden is None and oracle is None:
        raise ValueError("provide either a golden design or an oracle CSV")
    request = RepairRequest.from_files(source, testbench, golden, oracle)
    problem = materialize_request(request)[0]
    problem.name = Path(source).stem
    return problem


def localize(
    scenario: "str | object",
    config: RepairConfig | None = None,
) -> FaultLocalization:
    """Run fault localization (Algorithm 2) on the unpatched design.

    Scores the faulty design once on the serial evaluation backend, the
    way the engines score it, and seeds Algorithm 2 with the outputs
    that mismatch the oracle.  An empty mismatch yields an empty
    localization (the design already matches its oracle).  Raises
    :class:`ValueError` when the design cannot be scored: it does not
    compile, or it crashes in simulation.
    """
    config = config or RepairConfig()
    problem, scaled = _as_problem(scenario, config)
    with SerialBackend.for_problem(problem, scaled) as backend:
        [result] = backend.evaluate_batch([generate(problem.design)])
    if result.mismatch is None:
        raise ValueError(
            f"{problem.name}: the design cannot be scored (it does not "
            "compile, or it crashes in simulation)"
        )
    if not result.mismatch:
        return FaultLocalization()
    return localize_faults(problem.design, set(result.mismatch))


def lint(design: "ast.Source | str", rules: "str | None" = None):
    """Run static analysis over a design and return the report.

    Args:
        design: Verilog source text or an already-parsed
            :class:`~repro.hdl.ast.Source`.
        rules: Optional comma-separated rule codes/slugs (``"L001"``,
            ``"multi-driver"``, …); ``None`` or ``"all"`` runs the full
            catalog.  Raises ``ValueError`` for unknown entries.

    Returns:
        The :class:`~repro.lint.LintReport`; ``report.ok`` is True when
        there are no findings, and ``report.profile()`` gives per-rule
        counts.
    """
    from .lint import lint_tree, resolve_rules

    return lint_tree(_as_source(design), resolve_rules(rules))


def simulate(
    design: "ast.Source | str",
    testbench: "ast.Source | str | None" = None,
    record: bool = False,
    max_time: int = 1_000_000,
    max_steps: int = 5_000_000,
) -> SimResult:
    """Simulate a design, optionally under a testbench.

    With ``record=True`` the testbench is instrumented with a
    ``$cirfix_record`` hook first (if it lacks one), so
    ``result.trace`` carries the sampled output signals.
    """
    design = _as_source(design)
    if testbench is not None:
        bench = _as_source(testbench)
        if record:
            bench = ensure_instrumented(bench, design)
        source = combine_sources(design, bench)
    else:
        source = design
    return Simulator(source, max_steps=max_steps).run(max_time)
