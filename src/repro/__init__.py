"""repro — a from-scratch reproduction of CirFix (ASPLOS 2022).

CirFix automatically repairs defects in Verilog hardware designs with
genetic programming, a dataflow-based fault localization, and a fitness
function over instrumented-testbench traces.  This package re-implements
the complete system plus every substrate the paper depends on:

- :mod:`repro.hdl` — Verilog frontend (lexer, parser, numbered AST, codegen);
- :mod:`repro.sim` — event-driven 4-state simulator (the VCS stand-in);
- :mod:`repro.instrument` — testbench instrumentation and traces;
- :mod:`repro.core` — the CirFix repair engine itself;
- :mod:`repro.lint` — static analysis of design sources;
- :mod:`repro.obs` — run telemetry: structured tracing and metrics;
- :mod:`repro.api` — the stable high-level facade;
- :mod:`repro.cache` — the persistent sharded evaluation store;
- :mod:`repro.service` — repair-as-a-service: job daemon, typed job API;
- :mod:`repro.baselines` — the brute-force comparison search;
- :mod:`repro.benchsuite` — 11 projects / 32 defect scenarios (Table 2/3);
- :mod:`repro.experiments` — harnesses regenerating every table and figure.

Quickstart::

    from repro import repair_scenario, repair_verilog

    outcome = repair_verilog(faulty_design, testbench, golden_design)
    if outcome.plausible:
        print(outcome.repaired_source)

    # or run a benchmark scenario by id, with telemetry:
    from repro.obs import JsonlTraceObserver

    outcome = repair_scenario(
        "dec_numeric",
        seeds=(0,),
        observers=[JsonlTraceObserver("run.jsonl")],
    )
"""

from __future__ import annotations

from .api import (
    build_problem,
    lint,
    localize,
    materialize_request,
    repair_scenario,
    repair_verilog,
    run_request,
    simulate,
)
from .core.config import ConfigError, RepairConfig
from .core.engines import engine_names, get_engine, register_engine
from .core.oracle import ensure_instrumented, generate_oracle
from .core.repair import CirFixEngine, RepairOutcome, RepairProblem
from .hdl import generate, parse
from .service.jobs import JobStatus, RepairRequest, RepairResponse
from .sim import SimResult, Simulator

__version__ = "2.0.0"

__all__ = [
    # facade (repro.api)
    "repair_scenario",
    "repair_verilog",
    "run_request",
    "materialize_request",
    "localize",
    "simulate",
    "lint",
    "build_problem",
    # typed job API (repro.service.jobs)
    "RepairRequest",
    "RepairResponse",
    "JobStatus",
    # engine registry (repro.core.engines)
    "register_engine",
    "get_engine",
    "engine_names",
    # core types
    "ConfigError",
    "RepairConfig",
    "RepairProblem",
    "RepairOutcome",
    "CirFixEngine",
    "Simulator",
    "SimResult",
    "parse",
    "generate",
    "__version__",
]
