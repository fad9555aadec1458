"""The simulation corpus the kernel fixture pins, and its fingerprints.

The interpreter and the compiled engine share ``Signal``, ``Process`` and
``Scheduler``, so interp-vs-compiled parity cannot see a change to the
kernel they share.  The fixture ``golden/kernel_runs.json`` can: it
stores, for every run of a fixed corpus on both engines, the counters
(``steps_used``, ``events_executed``, ``slots_advanced``), the end time,
``finished``, and a SHA-256 over output, errors and every 4-state trace
bit.  A kernel change keeps every one of them.

The corpus:

- the 11 project golden runs and the 32 scenario faulty runs (the
  simulations of ``tests/benchsuite/test_engine_parity.py``);
- every candidate a seed-0 ``cirfix`` trial scores at the end-to-end
  benchmark's GP budget on four Table-3 scenarios, keyed by the SHA-256
  of the candidate's text and simulated under the scenario's budgets, as
  the evaluation backend simulates it;
- ``repro.fuzz.generate_program(seed)`` for seeds 0-199, under the fuzz
  oracles' budgets.

Regenerate the fixture only when a change is *meant* to move an event,
or to change which candidates the GP trials score (an outcome change
moves the candidate runs; the test then reports that the corpus changed
its runs)::

    PYTHONPATH=src python -m tests.sim.kernel_corpus
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.benchsuite import all_projects, all_scenarios, load_scenario
from repro.core.backend import SerialBackend, candidate_text
from repro.core.config import RepairConfig
from repro.core.harness import run_trials
from repro.core.repair import CirFixEngine
from repro.fuzz import generate_program
from repro.fuzz.oracles import FUZZ_EVAL_CONFIG
from repro.hdl import ast, parse
from repro.sim import CompiledSimulator, Simulator

FIXTURE = Path(__file__).parent / "golden" / "kernel_runs.json"

ENGINES = {"interp": Simulator, "compiled": CompiledSimulator}

#: The parity tests' time bound for project and scenario runs.
MAX_TIME = 1_000_000

#: The end-to-end benchmark's GP budget (``benchmarks/e2e/workloads.py``:
#: ``GP_BUDGET``, with ``i2c_ack``'s smaller search).
GP_BUDGET = RepairConfig(
    population_size=16,
    max_generations=2,
    max_fitness_evals=32,
    minimize_budget=8,
    max_wall_seconds=1e6,
)
GP_CLASS_BUDGET = {"i2c_ack": {"population_size": 8, "max_fitness_evals": 16}}
GP_SCENARIOS = ("counter_reset", "fsm_next_sens", "tate_shift_op", "i2c_ack")

FUZZ_SEEDS = range(200)


def fingerprint(result) -> dict:
    """Counters, end time and one digest over every observable bit."""
    blob = json.dumps(
        [
            result.output,
            result.errors,
            [
                [
                    record.time,
                    [
                        [name, v.width, v.aval, v.bval, v.signed]
                        for name, v in record.values.items()
                    ],
                ]
                for record in result.trace
            ],
        ],
        separators=(",", ":"),
    )
    return {
        "time": result.time,
        "finished": result.finished,
        "steps_used": result.steps_used,
        "events_executed": result.events_executed,
        "slots_advanced": result.slots_advanced,
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
    }


def simulate(build, max_time: int) -> dict:
    """Fingerprint one run; a design that does not build or crashes the
    run records the exception instead."""
    try:
        sim = build()
    except Exception as exc:  # noqa: BLE001 - the failure is the observable
        return {"build_error": f"{type(exc).__name__}: {exc}"}
    try:
        return fingerprint(sim.run(max_time))
    except Exception as exc:  # noqa: BLE001
        return {
            "run_error": f"{type(exc).__name__}: {exc}",
            "steps_used": sim.steps_used,
            "events_executed": sim.scheduler.events_executed,
        }


class _RecordingBackend(SerialBackend):
    """A serial backend that keeps the text of every candidate it scores."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.texts: list[str] = []

    def evaluate_batch(self, design_texts):
        self.texts.extend(candidate_text(c) for c in design_texts)
        return super().evaluate_batch(design_texts)


def gp_candidates(scenario_id: str) -> tuple[RepairConfig, ast.Source, dict[str, str]]:
    """The scenario's simulation config, testbench, and the candidates a
    seed-0 cirfix trial scores (SHA-256 of text → text)."""
    scenario = load_scenario(scenario_id)
    problem = scenario.problem()
    config = scenario.suggested_config(
        GP_BUDGET.scaled(**GP_CLASS_BUDGET.get(scenario_id, {}))
    )
    backend = _RecordingBackend(problem, config)
    run_trials(CirFixEngine, problem, config, (0,), backend=backend)
    texts = {hashlib.sha256(t.encode()).hexdigest(): t for t in backend.texts}
    return config, problem.testbench, texts


def corpus():
    """Yield ``(run id, engine name, build, max_time)`` for every run."""
    for project in all_projects():
        text = project.design_text + "\n" + project.testbench_text
        for name, engine in ENGINES.items():
            yield (
                f"project/{project.name}", name,
                lambda e=engine, t=text: e(parse(t)), MAX_TIME,
            )
    for scenario in all_scenarios():
        modules = list(parse(scenario.faulty_design_text).modules)
        modules += scenario.instrumented_testbench().modules
        for name, engine in ENGINES.items():
            yield (
                f"scenario/{scenario.scenario_id}", name,
                lambda e=engine, m=modules: e(ast.Source(list(m))), MAX_TIME,
            )
    for scenario_id in GP_SCENARIOS:
        config, testbench, texts = gp_candidates(scenario_id)
        for sha, text in sorted(texts.items()):

            def build(engine, text=text, testbench=testbench, config=config):
                design = parse(text)
                combined = ast.Source(list(design.modules) + list(testbench.modules))
                return engine(combined, max_steps=config.max_sim_steps)

            for name, engine in ENGINES.items():
                yield (
                    f"candidate/{scenario_id}/{sha}", name,
                    lambda b=build, e=engine: b(e), config.max_sim_time,
                )
    for seed in FUZZ_SEEDS:
        text = generate_program(seed).text
        for name, engine in ENGINES.items():
            yield (
                f"fuzz/{seed}", name,
                lambda e=engine, t=text: e(t, max_steps=FUZZ_EVAL_CONFIG.max_sim_steps),
                FUZZ_EVAL_CONFIG.max_sim_time,
            )


def replay() -> dict[str, dict[str, dict]]:
    """Run the whole corpus: run id → engine → fingerprint."""
    runs: dict[str, dict[str, dict]] = {}
    for run_id, engine, build, max_time in corpus():
        runs.setdefault(run_id, {})[engine] = simulate(build, max_time)
    return runs


def main() -> None:
    runs = replay()
    lines = ",\n".join(
        f"{json.dumps(run_id)}: {json.dumps(runs[run_id], sort_keys=True)}"
        for run_id in sorted(runs)
    )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(runs)} runs to {FIXTURE}")


if __name__ == "__main__":
    main()
