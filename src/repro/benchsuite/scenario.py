"""Defect scenarios: the unit of the CirFix benchmark suite (paper §4.1).

A scenario packages what the paper calls a *defect scenario*: a circuit
design, an instrumented testbench, expected-behaviour information, and an
expert-transplanted defect.  Here each defect is a precise source
transformation applied to a golden project, mirroring the defect
descriptions in the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import RepairConfig
from ..core.fitness import evaluate_fitness
from ..core.oracle import (
    combine_sources,
    ensure_instrumented,
    generate_oracle,
    golden_run,
)
from ..core.repair import RepairProblem
from ..hdl import parse
from ..instrument.trace import SimulationTrace
from ..sim.simulator import Simulator


@dataclass(frozen=True)
class Project:
    """A golden hardware project: design + testbench (+ validation bench)."""

    name: str
    description: str
    design_text: str
    testbench_text: str
    validate_text: str | None = None

    @property
    def design_loc(self) -> int:
        return _loc(self.design_text)

    @property
    def testbench_loc(self) -> int:
        return _loc(self.testbench_text)


def _loc(text: str) -> int:
    """Source lines of code: non-empty, non-comment-only lines."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


@dataclass(frozen=True)
class Defect:
    """One expert-style transplanted defect (a Table 3 row)."""

    scenario_id: str
    project: str
    description: str
    category: int  # 1 = "easy", 2 = "hard" (paper §4.1.3)
    #: Exact-string replacements applied to the golden design text.
    replacements: tuple[tuple[str, str], ...]
    #: Paper outcome for this row: "correct", "plausible", or "none".
    paper_outcome: str = "none"
    #: Paper repair time in seconds (None when no repair was found).
    paper_repair_seconds: float | None = None

    def apply(self, golden_text: str) -> str:
        """Transplant the defect; raises if any replacement misses."""
        text = golden_text
        for old, new in self.replacements:
            if old not in text:
                raise ValueError(
                    f"{self.scenario_id}: pattern not found in golden design:\n{old}"
                )
            text = text.replace(old, new, 1)
        if text == golden_text:
            raise ValueError(f"{self.scenario_id}: defect is a no-op")
        return text


@dataclass
class Scenario:
    """A fully materialised defect scenario, ready for the repair engine."""

    defect: Defect
    project: Project
    faulty_design_text: str
    _problem: RepairProblem | None = field(default=None, repr=False)

    @property
    def scenario_id(self) -> str:
        return self.defect.scenario_id

    @property
    def category(self) -> int:
        return self.defect.category

    @classmethod
    def from_texts(
        cls,
        scenario_id: str,
        *,
        golden_text: str,
        testbench_text: str,
        faulty_text: str,
        description: str = "",
        category: int = 1,
        project_name: str | None = None,
        validate_text: str | None = None,
    ) -> "Scenario":
        """Build a scenario directly from source texts.

        This is the adapter the scenario factory (:mod:`repro.mint`) and
        other synthetic suppliers use: any (golden, testbench, faulty)
        triple becomes a full :class:`Scenario` — oracle generation,
        ``suggested_config`` scaling, and correctness assessment all work
        exactly as for the 32 transplanted benchmark defects, so synthetic
        scenarios flow through ``run_scenario`` unchanged.  The defect's
        ``replacements`` are empty (the faulty text is supplied directly,
        not derived by string substitution).
        """
        project = Project(
            name=project_name or scenario_id,
            description=description or f"synthetic project for {scenario_id}",
            design_text=golden_text,
            testbench_text=testbench_text,
            validate_text=validate_text,
        )
        defect = Defect(
            scenario_id=scenario_id,
            project=project.name,
            description=description or scenario_id,
            category=category,
            replacements=(),
        )
        return cls(defect, project, faulty_text)

    # ------------------------------------------------------------------
    # Lazily built artefacts (oracle generation simulates the golden design)
    # ------------------------------------------------------------------

    def instrumented_testbench(self):
        """The testbench AST with the $cirfix_record hook inserted."""
        golden = parse(self.project.design_text)
        return ensure_instrumented(parse(self.project.testbench_text), golden)

    def oracle(self) -> SimulationTrace:
        """Expected-behaviour trace from the golden design (cached)."""
        return _golden_run(self.project)[0]

    def problem(self) -> RepairProblem:
        """The RepairProblem for this scenario (cached)."""
        if self._problem is None:
            self._problem = RepairProblem(
                parse(self.faulty_design_text),
                self.instrumented_testbench(),
                self.oracle(),
                name=self.scenario_id,
            )
        return self._problem

    def suggested_config(self, base: RepairConfig) -> RepairConfig:
        """Scale simulation bounds to this scenario's golden run cost.

        Candidate mutants that loop forever (e.g. a self-triggering
        ``always @(*)``) are cut off by the statement budget; tying it to
        the golden run's measured cost keeps such rejects cheap without
        truncating legitimate candidates.
        """
        oracle, steps = _golden_run(self.project)
        end_time = oracle.times()[-1] if len(oracle) else 10_000
        return base.scaled(
            max_sim_time=max(end_time * 4, 2_000),
            max_sim_steps=max(steps * 30, 20_000),
        )

    # ------------------------------------------------------------------
    # Correctness assessment (paper: manual inspection; here: held-out
    # validation testbench, a mechanised stand-in)
    # ------------------------------------------------------------------

    def faulty_fitness(self, phi: float = 2.0) -> float:
        """Fitness of the unrepaired faulty design (diagnostic)."""
        trace = simulate_design_text(
            self.faulty_design_text, self.instrumented_testbench()
        )
        return evaluate_fitness(trace, self.oracle(), phi).fitness

    def is_correct_repair(self, repaired_design_text: str) -> bool:
        """Check a plausible repair against the held-out validation bench.

        The paper judged correctness by manual inspection; we mechanise it:
        a repair is *correct* when it also reproduces the golden trace on a
        validation testbench with different stimuli (so testbench-overfitted
        repairs are rejected).  Projects without a validation bench fall
        back to the main testbench (repair quality then equals plausibility,
        which is noted in EXPERIMENTS.md).
        """
        bench_text = self.project.validate_text or self.project.testbench_text
        golden = parse(self.project.design_text)
        bench = ensure_instrumented(parse(bench_text), golden)
        expected = generate_oracle(golden, bench)
        actual = simulate_design_text(repaired_design_text, bench)
        return evaluate_fitness(actual, expected).fitness >= 1.0


#: Golden runs are deterministic per project: cache ``golden_run``'s
#: ``(oracle, steps_used)`` process-wide, so the scenarios over one
#: project simulate its golden design once, for both the oracle and the
#: step budget.  The texts themselves are part of the key, so an edited
#: project never reads a stale run.
_GOLDEN_RUNS: dict[tuple[str, str, str], tuple[SimulationTrace, int]] = {}


def _golden_run(project: Project) -> tuple[SimulationTrace, int]:
    key = (project.name, project.design_text, project.testbench_text)
    run = _GOLDEN_RUNS.get(key)
    if run is None:
        golden = parse(project.design_text)
        bench = ensure_instrumented(parse(project.testbench_text), golden)
        run = _GOLDEN_RUNS[key] = golden_run(golden, bench)
    return run


def simulate_design_text(design_text: str, instrumented_testbench) -> SimulationTrace:
    """Simulate a design under an instrumented testbench and return its
    trace (empty trace when the design does not elaborate)."""
    try:
        combined = combine_sources(parse(design_text), instrumented_testbench)
        sim = Simulator(combined)
    except Exception:
        return SimulationTrace()
    result = sim.run(1_000_000)
    return SimulationTrace.from_records(result.trace)
