#!/bin/sh
# Full verification sweep: tests, benchmarks, examples, experiment smoke.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src:${PYTHONPATH:-}
export PYTHONPATH

echo "== one process pool (no raw multiprocessing.Pool in src/) =="
if grep -rn "\.Pool(" src/; then
    echo "raw multiprocessing.Pool found in src/; use the supervised backend" >&2
    exit 1
fi

echo "== one trial loop (trial events and backends built in core/harness.py only) =="
if grep -rnE --include='*.py' "(TrialStarted|PlausiblePatchFound|make_backend)\(" src/ \
        | grep -vE "^src/repro/(core/harness|core/backend|obs/events)\.py:"; then
    echo "trial event or make_backend() outside core/harness.py; use run_trials" >&2
    exit 1
fi

echo "== one application per patch (harness applies and generates in _applied; backend applies shipped edits only) =="
python - <<'EOF'
import ast
import sys

# EngineHarness._applied is the memo every candidate's tree and text come
# from.  The only other codegen is the testbench text a RepairProblem
# precomputes (and a serial backend regenerates when not handed it): the
# testbench is never patched.  A pool worker makes an exact candidate's
# tree by applying its shipped edit list, in _apply_edits; no other
# backend code applies a patch.
ALLOWED = {
    "src/repro/core/harness.py": {
        ("EngineHarness._applied", "apply"),
        ("EngineHarness._applied", "generate"),
        ("RepairProblem.__init__", "generate(testbench)"),
    },
    "src/repro/core/backend.py": {
        ("_apply_edits", "apply"),
        ("SerialBackend.__init__", "generate(testbench)"),
    },
}


def calls(node, scope):
    """(line, enclosing def, call) for each .apply(...) and generate(...)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute) and func.attr == "apply":
                yield child.lineno, scope, "apply"
            elif isinstance(func, ast.Name) and func.id == "generate":
                call = "generate" if scope == "EngineHarness._applied" else ast.unparse(child)
                yield child.lineno, scope, call
        yield from calls(child, scope)


bad = [
    f"{path}:{line}: {call} in {scope or 'module scope'}"
    for path, allowed in ALLOWED.items()
    for line, scope, call in calls(ast.parse(open(path).read(), path), "")
    if (scope, call) not in allowed
]
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(
        "a patch is applied or generated outside EngineHarness._applied, "
        "or a backend applies anything but a shipped edit list"
    )
EOF

echo "== one scoring path (engines score candidates through the backend only) =="
python - <<'EOF'
import ast
import pathlib
import sys

# The backend is the only place an engine scores a candidate, so the
# caches and the supervisor sit under every simulation, and a candidate
# is judged by simulating it alone: no engine lints one.  Importing
# either name stays legal (the end-to-end tracer wraps core/harness.py's
# imports); mint/ and fuzz/ call evaluate_design_text as admission checks
# and oracles.
ROOTS = ("src/repro/core", "src/repro/synth", "src/repro/baselines", "src/repro/experiments")
#: Call name -> the files under ROOTS that may call it.
ALLOWED = {
    "evaluate_design_text": {"src/repro/core/backend.py"},
    "lint_tree": set(),
}

bad = []
for root in ROOTS:
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ALLOWED and path.as_posix() not in ALLOWED[name]:
                bad.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(
        "evaluate_design_text() called outside core/backend.py, or lint_tree() "
        "called by an engine; score candidates through the backend"
    )
EOF

echo "== the engine scores its own trees (each scored tree is the parse of its text) =="
python - <<'EOF'
import sys

from repro.benchsuite import all_scenarios
from repro.core.config import RepairConfig
from repro.core.harness import EngineHarness, run_trials
from repro.core.repair import CirFixEngine
from repro.fuzz.oracles import check_candidate_roundtrip
from repro.synth import SynthEngine

# The serial backend compiles the tree the harness holds instead of
# parsing the candidate's text, so every candidate must either parse
# back from its text as that tree or be reported inexact by strict
# codegen (and then be scored from its text).  Record each candidate
# EngineHarness._applied makes, over all 32 Table-3 scenarios and both
# engines at seed 0, and check it.
seen = {}
applied = EngineHarness._applied


def recording(self, patch):
    tree, text, exact = result = applied(self, patch)
    if text is not None:
        seen.setdefault(id(tree), (tree, text, exact))
    return result


EngineHarness._applied = recording
budget = RepairConfig(
    population_size=24, max_generations=3, max_fitness_evals=80,
    minimize_budget=16, max_wall_seconds=1e6,
)
total = inexact = 0
bad = []
for scenario in all_scenarios():
    for engine in (CirFixEngine, SynthEngine):
        seen.clear()
        run_trials(engine, scenario.problem(), scenario.suggested_config(budget), (0,))
        for tree, text, exact in seen.values():
            total += 1
            inexact += not exact
            bad += [
                f"{scenario.scenario_id} {engine.__name__}: {violation.detail}"
                for violation in check_candidate_roundtrip(tree, text, exact)
            ]
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(f"{len(bad)} candidate(s) would score a tree that is not their text's program")
print(f"engine trees ok: {total} candidates, {inexact} reported inexact "
      "and scored from their text")
EOF

echo "== each edit costs its path (index-driven operators and edit-sized apply equal the walks) =="
python - <<'EOF'
import sys

from repro.benchsuite import all_scenarios
from repro.core.config import RepairConfig
from repro.core.harness import run_trials
from repro.core.repair import CirFixEngine
from repro.synth import SynthEngine
from tests.core.edit_path_checks import EditPathChecks

# The GP operators and Algorithm 2 answer from each parent's variant
# index, and Patch.apply takes paths from an index and applies a child's
# new edits to its parent's tree.  Over all 32 Table-3 scenarios and both
# engines at seed 0, every operator child must equal the walking
# reference operators' child (tests/core/reference_operators.py) from the
# same RNG state, every fault set the reference fixed point's, every
# incremental application the full application and every application
# the clone-then-edit one (ids included), every applied tree must
# carry each node id once, and every exact candidate's edit list, shipped
# through pickle and applied from the design's index as a pool worker
# applies it, must give the engine's tree (ids included).
budget = RepairConfig(
    population_size=24, max_generations=3, max_fitness_evals=80,
    minimize_budget=16, max_wall_seconds=1e6,
)
with EditPathChecks() as checks:
    for scenario in all_scenarios():
        for engine in (CirFixEngine, SynthEngine):
            run_trials(engine, scenario.problem(), scenario.suggested_config(budget), (0,))
if checks.failures:
    print("\n".join(checks.failures[:20]), file=sys.stderr)
    sys.exit(f"{len(checks.failures)} operator child(ren), application(s) or candidate(s) differ")
if not checks.counts["incremental"]:
    sys.exit("no incremental application was checked")
if not checks.counts["exact"]:
    sys.exit("no exact candidate's shipped edit list was checked")
print("edit paths ok: " + ", ".join(f"{k}={v}" for k, v in sorted(checks.counts.items())))
EOF

echo "== one way in (repro repair runs through run_request; simulators built in their homes only) =="
python - <<'EOF'
import ast
import pathlib
import sys

# `repro repair` reads its files into a RepairRequest and runs it with
# run_request, as the daemon runs `repro submit`; it neither builds its
# own problem nor picks its own engine runner.
CLI = "src/repro/cli.py"
CLI_BANNED = {"get_engine", "build_problem"}
# A simulator is built by the simulator package itself, by the backend
# (candidates), by the golden run (oracles), by the fuzz reference
# oracles, and by two standalone simulation helpers.  Everything else
# scores through the backend or reads the golden run.
SIMULATORS = {"Simulator", "CompiledSimulator"}
ALLOWED_FILES = {
    "src/repro/core/backend.py",
    "src/repro/core/oracle.py",
    "src/repro/fuzz/oracles.py",
}
ALLOWED_SCOPES = {
    ("src/repro/api.py", "simulate"),
    ("src/repro/benchsuite/scenario.py", "simulate_design_text"),
}


def calls(node, scope):
    """(line, enclosing def, called name) for each call in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            yield child.lineno, scope, name
        yield from calls(child, scope)


bad = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    posix = path.as_posix()
    if posix.startswith("src/repro/sim/") or posix in ALLOWED_FILES:
        continue
    for line, scope, name in calls(ast.parse(path.read_text(), posix), ""):
        if posix == CLI and name in CLI_BANNED:
            bad.append(f"{posix}:{line}: {name}() in {scope}; use run_request")
        elif name in SIMULATORS and (posix, scope) not in ALLOWED_SCOPES:
            bad.append(f"{posix}:{line}: {name}() in {scope or 'module scope'}")
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit("a second way in: run requests through run_request, score through the backend")
EOF

echo "== recovery is a warm replay (no engine checkpoints in src/) =="
# A recovered job runs its request again from the start, warm out of the
# persistent eval cache.  The one allowed line is an uncalled stub that
# the end-to-end benchmark tracer wraps.
if grep -rniI checkpoint src/ \
        | grep -vE "^src/repro/service/journal\.py:[0-9]+: +def save_checkpoint\("; then
    echo "checkpoint code in src/; recovery replays the request from the start" >&2
    exit 1
fi

echo "== the kernel keeps every event (counters, end time, output and trace bits) =="
# tests/sim/golden/kernel_runs.json pins every run of a fixed corpus on
# both engines; interp-vs-compiled parity cannot see a change to the
# Signal/Process/Scheduler kernel both engines share.
python -m pytest tests/sim/test_kernel_fixture.py -q

echo "== unit / integration / property tests =="
python -m pytest tests/ -q

echo "== benchmark harness (one target per paper table/figure) =="
python -m pytest benchmarks/ --benchmark-only -q

echo "== examples =="
python examples/simulator_playground.py > /dev/null
python examples/fault_localization_demo.py > /dev/null
python examples/oracle_degradation.py > /dev/null
python examples/quickstart.py 0 1 2 > /dev/null
python examples/repair_custom_design.py > /dev/null

echo "== cheap experiments =="
python -m repro.experiments table2 > /dev/null
python -m repro.experiments figure2 > /dev/null
python -m repro.experiments figure3 > /dev/null
python -m repro.experiments rq3 > /dev/null
python -m repro.experiments phi > /dev/null
python -m repro.experiments fixloc > /dev/null

echo "== parallel smoke repair (counter_reset, --workers 2 vs --workers 1) =="
SMOKE_DIR="$(mktemp -d)"
SERVE_PID=""
trap 'rm -rf "$SMOKE_DIR"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
python - "$SMOKE_DIR" <<'EOF'
import sys
from pathlib import Path
from repro.benchsuite import load_scenario

out = Path(sys.argv[1])
scenario = load_scenario("counter_reset")
(out / "faulty.v").write_text(scenario.faulty_design_text)
(out / "golden.v").write_text(scenario.project.design_text)
(out / "tb.v").write_text(scenario.project.testbench_text)
EOF
python -m repro repair "$SMOKE_DIR/faulty.v" "$SMOKE_DIR/tb.v" \
    --golden "$SMOKE_DIR/golden.v" --workers 2 --population 120 \
    --budget 120 --seeds 0 1 --output "$SMOKE_DIR/repaired.v" > /dev/null
test -s "$SMOKE_DIR/repaired.v"
# The same repair on one worker must write the byte-identical design.
python -m repro repair "$SMOKE_DIR/faulty.v" "$SMOKE_DIR/tb.v" \
    --golden "$SMOKE_DIR/golden.v" --workers 1 --population 120 \
    --budget 120 --seeds 0 1 --output "$SMOKE_DIR/repaired_serial.v" > /dev/null
cmp "$SMOKE_DIR/repaired.v" "$SMOKE_DIR/repaired_serial.v" || {
    echo "parallel smoke: --workers 2 and --workers 1 repairs differ" >&2
    exit 1; }

echo "== telemetry smoke (trace + metrics vs outcome, repro report) =="
python - "$SMOKE_DIR" <<'EOF'
import sys
from pathlib import Path

from repro import repair_scenario
from repro.core.config import RepairConfig
from repro.obs import JsonlTraceObserver, MetricsObserver, read_events

trace_path = Path(sys.argv[1]) / "smoke.jsonl"
config = RepairConfig(
    population_size=120, max_generations=4, max_wall_seconds=90.0,
    max_fitness_evals=600, minimize_budget=64,
)
metrics = MetricsObserver()
with JsonlTraceObserver(trace_path) as trace:
    outcome = repair_scenario(
        "counter_reset", config=config, seeds=(0,), observers=[trace, metrics]
    )

# The JSONL artifact parses back into typed events...
events = read_events(trace_path)
assert events, "trace is empty"
assert events[0].type == "trial_started"
assert events[-1].type == "trial_completed"

# ...and the metrics totals match the engine's own counters.
assert metrics.candidates == outcome.eval_sims, (
    metrics.candidates, outcome.eval_sims)
assert metrics.eval_sims == outcome.eval_sims
assert metrics.fitness_evals == outcome.fitness_evals
assert metrics.simulations == outcome.simulations
replayed = MetricsObserver.replay(events)
assert replayed.summary() == metrics.summary()
print(f"telemetry smoke ok: {len(events)} events, "
      f"{metrics.candidates} unique evaluations")
EOF
python -m repro report "$SMOKE_DIR/smoke.jsonl" > /dev/null

echo "== lint smoke (all golden designs clean, bad sample caught) =="
python - "$SMOKE_DIR" <<'EOF'
import sys
from pathlib import Path

from repro.benchsuite import PROJECT_NAMES, load_project

out = Path(sys.argv[1])
for name in PROJECT_NAMES:
    (out / f"lint_{name}.v").write_text(load_project(name).design_text)
(out / "bad_sample.v").write_text(
    "module bad(input a, input b, output w);\n"
    "  assign w = a;\n"
    "  assign w = b;\n"
    "endmodule\n"
)
EOF
# Error-severity rules are clean on every golden design (sha3 carries a
# recorded L002 style warning, so the full-catalog exit code is 1 there).
python -m repro lint --rules L001,L005,L006 "$SMOKE_DIR"/lint_*.v \
    --json > /dev/null
if python -m repro lint "$SMOKE_DIR/bad_sample.v" > /dev/null; then
    echo "lint failed to flag a known-bad design" >&2
    exit 1
fi

echo "== chaos smoke (supervised pool quarantines planted faults) =="
REPRO_EVAL_CHAOS="hang@28,exit@29" python - <<'EOF'
from repro.benchsuite import load_scenario
from repro.core.backend import make_backend
from repro.core.config import RepairConfig
from repro.core.repair import CirFixEngine
from repro.obs import MetricsObserver

# One hang-mutant and one hard-exit-mutant are planted (via the
# REPRO_EVAL_CHAOS dispatch ordinals above; dispatch 0 is the unpatched
# design) into a --workers 2 repair.
# The supervisor must time out the hang, notice the dead worker, and
# quarantine both — and the run must still find the repair.
scenario = load_scenario("ff_cond")
config = scenario.suggested_config(RepairConfig(
    population_size=24, max_generations=6, max_wall_seconds=120.0,
    max_fitness_evals=600, minimize_budget=64,
    workers=2, backend="process",
    eval_deadline_seconds=5.0, eval_max_retries=0, worker_mem_mb=512,
))
problem = scenario.problem()
metrics = MetricsObserver()
with make_backend(problem, config) as backend:
    outcome = CirFixEngine(
        problem, config, 0, backend=backend, observers=[metrics]
    ).run()
assert outcome.plausible, "chaos smoke lost the repair"
assert outcome.quarantined == 2, outcome.quarantined
assert metrics.quarantined_by_kind == {"crash": 1, "timeout": 1}, (
    metrics.quarantined_by_kind)
assert metrics.candidates_timed_out == 1
assert metrics.worker_failures == {"crash": 1}
print(f"chaos smoke ok: repaired with {outcome.quarantined} quarantined "
      f"({metrics.quarantined_by_kind})")
EOF

echo "== service smoke (daemon, warm resubmit, parity with direct repair) =="
python -m repro serve --socket "$SMOKE_DIR/repro.sock" \
    --cache-dir "$SMOKE_DIR/evalcache" 2> "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
python - "$SMOKE_DIR/repro.sock" <<'EOF'
import json
import sys
import time

from repro.api import run_request
from repro.core.config import RepairConfig
from repro.service import RepairRequest, ServiceClient

request = RepairRequest(
    scenario="counter_reset",
    config={
        "population_size": 120, "max_generations": 4,
        "max_wall_seconds": 90.0, "max_fitness_evals": 600,
        "minimize_budget": 64,
    },
    seeds=(0,),
)
client = ServiceClient(sys.argv[1], timeout=300)
deadline = time.monotonic() + 30
while True:
    try:
        client.ping()
        break
    except OSError:
        if time.monotonic() > deadline:
            raise SystemExit("service smoke: daemon never came up")
        time.sleep(0.1)

def report(outcome_json):
    """Outcome report minus the only wall-clock field."""
    payload = json.loads(outcome_json)
    payload.pop("elapsed_seconds")
    return payload

from repro.core.serialize import outcome_to_json
direct = report(outcome_to_json(
    run_request(request, base_config=RepairConfig()), "counter_reset"))

_, cold = client.submit(request)
assert cold.status == "done" and cold.plausible, cold
assert report(cold.outcome_json) == direct, "submit diverged from direct run"

_, warm = client.submit(request)
assert warm.status == "done", warm
assert report(warm.outcome_json) == direct, "warm resubmit diverged"
assert warm.cache["hit_rate"] >= 0.9, warm.cache
print(f"service smoke ok: warm hit rate {warm.cache['hit_rate']:.2f} "
      f"({warm.cache['store_hits']} hits / {warm.cache['store_misses']} misses)")
EOF
# The CLI client path: a third (cached) submission and the job table.
python -m repro submit --socket "$SMOKE_DIR/repro.sock" counter_reset \
    --seeds 0 --config population_size=120 --config max_generations=4 \
    --config max_wall_seconds=90.0 --config max_fitness_evals=600 \
    --config minimize_budget=64 > /dev/null
# A job with no plausible repair whose best patch replaces a case arm:
# it must end done (exit 1, not 2) and its patchlist must reload.
STATUS=0
python -m repro submit --socket "$SMOKE_DIR/repro.sock" dec_numeric \
    --seeds 2 --config population_size=120 --config max_generations=4 \
    --config max_fitness_evals=600 --config minimize_budget=64 \
    --config max_wall_seconds=1e6 > "$SMOKE_DIR/dec_numeric.json" || STATUS=$?
[ "$STATUS" -eq 1 ] || {
    echo "service smoke: dec_numeric submit exited $STATUS, expected 1" >&2
    exit 1; }
python - "$SMOKE_DIR/dec_numeric.json" <<'EOF'
import json
import sys

from repro.core.serialize import edit_from_dict

with open(sys.argv[1]) as report:
    edits = [edit_from_dict(entry) for entry in json.load(report)["patchlist"]]
print(f"service smoke ok: dec_numeric report reloads ({len(edits)} edits)")
EOF
python -m repro jobs --socket "$SMOKE_DIR/repro.sock" > /dev/null
python - "$SMOKE_DIR/repro.sock" <<'EOF'
import sys
from repro.service import ServiceClient
ServiceClient(sys.argv[1], timeout=30).shutdown()
EOF
wait "$SERVE_PID"
SERVE_PID=""

echo "== crash-recovery smoke (kill -9, journal replay, bit-identical outcome) =="
# Phase 1: journaled daemon; submit a multi-generation job with a
# streaming client and hard-kill the daemon once the streamed events show
# the engine has finished generation 2.
python -m repro serve --socket "$SMOKE_DIR/crash.sock" \
    --cache-dir "$SMOKE_DIR/crashcache" --journal-dir "$SMOKE_DIR/journal" \
    --max-jobs 1 2> "$SMOKE_DIR/crash_serve.log" &
SERVE_PID=$!
python - "$SMOKE_DIR" <<'EOF'
import sys
import time
from pathlib import Path

from repro.service import RepairRequest, ServiceClient

out = Path(sys.argv[1])
# fsm_case under this budget runs its full 8 generations (~9 s, no early
# plausible exit), so the kill reliably lands mid-search.
request = RepairRequest(
    scenario="fsm_case",
    config={
        "population_size": 60, "max_generations": 8,
        "max_fitness_evals": 2000, "max_wall_seconds": 120.0,
        "minimize_budget": 32,
    },
    seeds=(0,),
)
client = ServiceClient(str(out / "crash.sock"), timeout=300)
deadline = time.monotonic() + 30
while True:
    try:
        client.ping()
        break
    except OSError:
        if time.monotonic() > deadline:
            raise SystemExit("crash smoke: daemon never came up")
        time.sleep(0.1)


class KillNow(Exception):
    """Raised from the event callback to stop reading the job's stream."""


def on_event(event):
    if event.type == "job_started":
        (out / "crash_job_id").write_text(event.job_id)
    elif event.type == "generation_completed" and event.generation >= 2:
        raise KillNow


try:
    client.submit(request, stream=True, on_event=on_event)
except KillNow:
    pass
else:
    raise SystemExit("crash smoke: job finished before generation 2")
EOF
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
python - "$SMOKE_DIR" <<'EOF'
import sys
from pathlib import Path

from repro.service.journal import JobJournal

out = Path(sys.argv[1])
unfinished = JobJournal(out / "journal").unfinished()
assert len(unfinished) == 1, f"expected 1 unfinished journal record: {unfinished}"
assert unfinished[0].job_id == (out / "crash_job_id").read_text()
EOF
# Phase 2: restart with --recover; the client re-attaches by resubmitting
# and the recovered outcome must match an uninterrupted direct run.
python -m repro serve --socket "$SMOKE_DIR/crash.sock" \
    --cache-dir "$SMOKE_DIR/crashcache" --journal-dir "$SMOKE_DIR/journal" \
    --max-jobs 1 --recover 2>> "$SMOKE_DIR/crash_serve.log" &
SERVE_PID=$!
python - "$SMOKE_DIR" <<'EOF'
import json
import sys
import time
from pathlib import Path

from repro.api import run_request
from repro.core.config import RepairConfig
from repro.core.serialize import outcome_to_json
from repro.service import RepairRequest, ServiceClient
from repro.service.journal import JobJournal

out = Path(sys.argv[1])
request = RepairRequest(
    scenario="fsm_case",
    config={
        "population_size": 60, "max_generations": 8,
        "max_fitness_evals": 2000, "max_wall_seconds": 120.0,
        "minimize_budget": 32,
    },
    seeds=(0,),
)
client = ServiceClient(str(out / "crash.sock"), timeout=300)
deadline = time.monotonic() + 30
while True:
    try:
        client.ping()
        break
    except OSError:
        if time.monotonic() > deadline:
            raise SystemExit("crash smoke: recovered daemon never came up")
        time.sleep(0.1)
joined, response = client.submit(request, retries=2)
assert joined.job_id == (out / "crash_job_id").read_text(), \
    "resubmission did not join the recovered job"
assert response.status == "done", response

def report(outcome_json):
    payload = json.loads(outcome_json)
    payload.pop("elapsed_seconds")
    return payload

direct = report(outcome_to_json(
    run_request(request, base_config=RepairConfig()), "fsm_case"))
assert report(response.outcome_json) == direct, \
    "recovered outcome diverged from the uninterrupted direct run"
journal = JobJournal(out / "journal")
assert journal.unfinished() == [], "journal not clean after recovery"
print(f"crash-recovery smoke ok: bit-identical after kill -9, warm hit "
      f"rate {response.cache['hit_rate']:.2f}")
EOF
python - "$SMOKE_DIR/crash.sock" <<'EOF'
import sys
from repro.service import ServiceClient
ServiceClient(sys.argv[1], timeout=30).shutdown()
EOF
wait "$SERVE_PID"
SERVE_PID=""

echo "== fuzz smoke (fixed seed, differential oracles incl. interp-vs-compiled) =="
python -m repro fuzz --seed 0 --count 25 --trace "$SMOKE_DIR/fuzz.jsonl" \
    > "$SMOKE_DIR/fuzz_summary.txt"
grep -q "violations: 0" "$SMOKE_DIR/fuzz_summary.txt"
# The engine-parity oracle must have raced interp vs compiled on every program.
grep -q "engines=25" "$SMOKE_DIR/fuzz_summary.txt"
python -m repro report "$SMOKE_DIR/fuzz.jsonl" > /dev/null

echo "== minted smoke (scenario factory + cross-backend grading parity) =="
# Mint at a fixed seed: enough attempts must survive the observability gate.
python -m repro mint --seed 0 --count 8 --no-shrink \
    > "$SMOKE_DIR/mint_summary.txt"
ADMITTED=$(grep -oP '(?<=^  admitted: )\d+' "$SMOKE_DIR/mint_summary.txt")
[ "$ADMITTED" -ge 5 ] || {
    echo "minted smoke: only $ADMITTED/8 admitted"; exit 1; }
# Grade the same minted set serially and on the process backend: the
# summary must be byte-identical (the determinism contract for grading).
python -m repro grade --seed 0 --count 5 --max-scenarios 3 \
    --out "$SMOKE_DIR/grade_serial.txt" > /dev/null
python -m repro grade --seed 0 --count 5 --max-scenarios 3 \
    --backend process --workers 2 \
    --out "$SMOKE_DIR/grade_process.txt" > /dev/null
cmp "$SMOKE_DIR/grade_serial.txt" "$SMOKE_DIR/grade_process.txt" || {
    echo "minted smoke: serial vs process grading diverged"; exit 1; }

echo "== synth smoke (--engine synth CLI + cross-backend outcome parity) =="
# ff_cond (a negated condition) sits squarely in the template catalog;
# the CLI run must find a repair and write the design + report pair.
python - "$SMOKE_DIR" <<'EOF'
import sys
from pathlib import Path
from repro.benchsuite import load_scenario

out = Path(sys.argv[1])
scenario = load_scenario("ff_cond")
(out / "synth_faulty.v").write_text(scenario.faulty_design_text)
(out / "synth_golden.v").write_text(scenario.project.design_text)
(out / "synth_tb.v").write_text(scenario.project.testbench_text)
EOF
python -m repro repair "$SMOKE_DIR/synth_faulty.v" "$SMOKE_DIR/synth_tb.v" \
    --golden "$SMOKE_DIR/synth_golden.v" --engine synth --population 120 \
    --budget 90 --seeds 0 --output "$SMOKE_DIR/synth_repaired.v" > /dev/null
test -s "$SMOKE_DIR/synth_repaired.v"
test -s "$SMOKE_DIR/synth_repaired.report.json"
# The synth outcome JSON is byte-stable across evaluation backends
# (same engine contract the GP runner honours).
python - <<'EOF'
import json
from repro.benchsuite import load_scenario
from repro.core.serialize import outcome_to_json
from repro.experiments.common import SMOKE
from repro.synth import synth_repair

outcomes = {}
for backend, workers in (("serial", 1), ("process", 2)):
    scenario = load_scenario("ff_cond")
    config = scenario.suggested_config(SMOKE).scaled(
        backend=backend, workers=workers
    )
    payload = json.loads(
        outcome_to_json(synth_repair(scenario.problem(), config, (0,)), "ff_cond")
    )
    payload.pop("elapsed_seconds")
    outcomes[backend] = payload
assert outcomes["serial"]["plausible"], "synth smoke found no repair"
assert outcomes["serial"] == outcomes["process"], "synth diverged by backend"
print(f"synth smoke ok: {outcomes['serial']['eval_sims']} eval_sims, "
      "outcome JSON identical across backends")
EOF

echo "== GP cross-backend smoke (pool, then serial, on one cache_dir) =="
# Both backends return the same compact results, so the serial rerun
# replays every entry the pool published and publishes nothing itself.
python - "$SMOKE_DIR" <<'EOF'
import json
import sys
from pathlib import Path

from repro.api import run_request
from repro.cache import PersistentEvalCache
from repro.core.serialize import outcome_to_json
from repro.service import RepairRequest

cache_dir = str(Path(sys.argv[1]) / "gp_cache")
budget = {
    "population_size": 16, "max_generations": 2, "max_fitness_evals": 32,
    "minimize_budget": 8, "max_wall_seconds": 1e6, "cache_dir": cache_dir,
}


def report(**backend):
    request = RepairRequest(
        scenario="fsm_next_sens", seeds=(0,), config={**budget, **backend}
    )
    payload = json.loads(outcome_to_json(run_request(request), "fsm_next_sens"))
    payload.pop("elapsed_seconds")
    return payload


pool = report(backend="process", workers=2)
store = PersistentEvalCache.open(cache_dir)
published = store.info()["stores"]
serial = report(backend="serial")
assert serial == pool, f"GP outcome diverged by backend: {serial} != {pool}"
assert store.info()["stores"] == published, "serial rerun re-published pool entries"
print(f"GP cross-backend smoke ok: {serial['eval_sims']} eval_sims, "
      f"{published} entries published once, outcome JSON identical")
EOF

echo "== escalation smoke (race = synth, then GP only when synth fails) =="
python - <<'EOF'
import json
from repro.benchsuite import load_scenario
from repro.core.repair import repair
from repro.core.serialize import outcome_to_json
from repro.experiments.common import SMOKE
from repro.synth import race_repair, synth_repair


class Trials:
    started = 0

    def on_event(self, event):
        self.started += event.type == "trial_started"


def report(outcome, name):
    payload = json.loads(outcome_to_json(outcome, name))
    payload.pop("elapsed_seconds")
    return payload


# counter_reset is a *deleted* statement: no template re-grows it, so
# the race escalates and returns GP's outcome.  ff_cond is a negated
# condition synth inverts, so GP never starts.
for name, leg, trials_expected in (
    ("counter_reset", repair, 2), ("ff_cond", synth_repair, 1),
):
    scenario = load_scenario(name)
    config = scenario.suggested_config(SMOKE)
    trials = Trials()
    race = race_repair(scenario.problem(), config, (0,), observers=[trials])
    standalone = leg(load_scenario(name).problem(), config, (0,))
    assert report(race, name) == report(standalone, name), (
        f"{name}: race diverged from a standalone {leg.__name__}")
    assert trials.started == trials_expected, (name, trials.started)
    print(f"escalation smoke ok: {name} = standalone {leg.__name__} "
          f"(plausible={race.plausible}, {trials.started} trial(s))")
EOF

echo "ALL CHECKS PASSED"
