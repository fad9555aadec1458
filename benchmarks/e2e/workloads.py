"""Run one end-to-end benchmark workload in this process.

``run.py`` starts this file in a fresh interpreter for every
measurement, so imports and the package's process-wide caches (golden
oracles, compiled testbench templates, shared persistent-cache
instances) start cold, as they do for a ``repro repair`` user.  One
process:

1. sets the workload up and records ``setup_s``: host time from
   interpreter entry, before ``import repro``, to ready for the first
   job, less the time spent minting race-minted's inputs (``mint_s``);
2. runs jobs closed-loop for ``--seconds`` of host time, recording when
   each run of a job started and ended (a job still running at the
   deadline is cancelled and not counted);
3. checks the outputs, outside the timed phase;
4. writes one JSON result to ``--result``.

With ``--setup-only`` it stops after step 1.  With ``--trace`` the
layer hooks of ``tracer.py`` wrap the package during step 2.

Usage (``run.py`` does this for you; run from the repository root)::

    python3 benchmarks/e2e/workloads.py --workload gp-table3 --seed 0 \\
        --seconds 25 --work benchmarks/e2e/.work/x --result out.json
"""

import time

_ENTRY = time.perf_counter()

import argparse  # noqa: E402  (setup_s starts before any import)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: Search budget of every GP job (gp-table3, gp-table3-pool,
#: service-mix).  Jobs are small so that one run finishes many of them:
#: a job's cost moves with its trial seed, and the run-level number is
#: steady only when taken over many trial seeds.
GP_BUDGET = {
    "population_size": 16,
    "max_generations": 2,
    "max_fitness_evals": 32,
    "minimize_budget": 8,
    # Work is bounded by max_fitness_evals alone: the engine's
    # wall-clock deadline would make outcomes depend on host speed.
    "max_wall_seconds": 1e6,
}

#: Table-3 scenarios of gp-table3, small design to large.  Each was
#: chosen because its job time moves little with the trial seed (a log
#: spread of 0.13-0.17 over twenty trial seeds).  Left out because
#: their job times split in two: ``rs_sens``, ``rs_regsize``,
#: ``sdram_reset`` and ``sdram_case`` (some trial seeds meet a looping
#: candidate that runs to the step cap and takes two to four times as
#: long), ``i2c_sens``, ``lshift_cond`` and ``fsm_blocking`` (some trial
#: seeds find a repair and end two to three times sooner), and
#: ``sha3_*`` (both).
GP_CLASSES = (
    "counter_reset", "mux_hex", "fsm_next_default", "fsm_next_sens",
    "tate_shift_op", "i2c_ack",
)

#: A smaller search for the large design, whose candidates simulate for
#: about 60 ms each, so that every job runs more than once in a window.
GP_CLASS_BUDGET = {
    "i2c_ack": {"population_size": 8, "max_fitness_evals": 16},
}

#: Jobs per scenario in a gp-table3 run, each with its own trial seed:
#: the class median of four is not moved by one job that meets a
#: looping candidate.  The 24 jobs run once in about half a window.
GP_JOBS_PER_CLASS = 4

#: Scenarios of service-mix's cold submissions: small designs, so jobs
#: are short and per-job fixed costs show.  None has a ``case``
#: statement: the daemon cannot serialize a patch that edits a case item
#: (``SerializeError: cannot serialize payload CaseItem``), and the
#: client of such a job waits forever.
SERVICE_SCENARIOS = (
    "counter_reset", "counter_incr", "counter_sens", "ff_cond",
    "ff_branches", "lshift_sens",
)

#: Mint seed and attempts of race-minted's corpus.  The corpus is the
#: same at every run seed, which picks the trial seeds: minted designs
#: differ so much in size that runs over the corpora of ten seeds read
#: ``job_ms`` with a quartile spread of 37%.
MINT_SEED = 0
MINT_COUNT = 24

#: Search budget of each race-minted leg (GRADE_CONFIG, scaled down so
#: that a run times every job twice or more).
RACE_BUDGET = {
    "population_size": 10,
    "max_generations": 2,
    "max_fitness_evals": 20,
    "minimize_budget": 8,
    "max_wall_seconds": 1e6,
}

#: Jobs per minted scenario in a race-minted run, each with its own
#: trial seed: one scenario's job time moves by a factor of two or three
#: with the trial seed (some find a repair early).
RACE_JOBS_PER_SCENARIO = 2

WORKLOADS = ("gp-table3", "gp-table3-pool", "race-minted", "service-mix")


@dataclass
class Job:
    """One finished job of the measured phase."""

    #: Stratum the job's cost is averaged in: the scenario, the defect
    #: family, or how the daemon served it (cold, warm).
    cls: str
    #: Stable identity: the same key names the same inputs in every run.
    key: str
    #: ``[start, end]`` host times (``time.perf_counter()``) of each timed
    #: run, from call or submission to outcome.  ``run.py`` scales each
    #: run to the reference host speed (``gauge.py``).
    timings: list
    plausible: bool
    fitness: float
    eval_sims: int
    repaired_sha: str | None
    #: Held-out grade of a plausible repair (set by the output checks).
    correct: bool = False


class StoreFailures(logging.Handler):
    """Counts failed persistent-cache publishes (``cache store failed``)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("cache store failed"):
            self.count += 1


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``), in MiB.

    Not ``ru_maxrss``: Linux carries it across fork and exec, so a
    process can report the peak of whatever started it.  Forked pool
    workers are not counted.  A diagnostic only: in a few runs one job
    meets a candidate that declares a register 2**32 bits wide, which
    lifts it from about 33 MiB to over 1 GiB for a second.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _trial_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct trial seeds drawn from the run seed.

    Each job gets its own: one trial seed shared by every job of a run
    moves all of them the same way (trial seed 0 makes 18 of the 22
    race-minted jobs slower than their median), so the run-level number
    would move with the seed.
    """
    return random.Random(seed).sample(range(1 << 20), count)


def _deadline_probe(deadline: float):
    """A cancel callable for one job; ``fired`` records a window cut."""
    fired: list[bool] = []

    def cancel() -> bool:
        if time.monotonic() >= deadline:
            fired.append(True)
            return True
        return False

    return cancel, fired


# ----------------------------------------------------------------------
# Direct workloads: gp-table3, gp-table3-pool, race-minted
# ----------------------------------------------------------------------


def _gp_request(scenario: str, trial_seed: int, overrides: dict):
    from repro.service.jobs import RepairRequest

    config = {**GP_BUDGET, **GP_CLASS_BUDGET.get(scenario, {}), **overrides}
    return RepairRequest(scenario=scenario, seeds=(trial_seed,), config=config)


def _gp_plan(seed: int, overrides: dict) -> list:
    """GP_JOBS_PER_CLASS rounds over GP_CLASSES, a trial seed per job."""
    from repro.api import run_request

    trial_seeds = iter(_trial_seeds(seed, GP_JOBS_PER_CLASS * len(GP_CLASSES)))
    plan = []
    for _ in range(GP_JOBS_PER_CLASS):
        for scenario in GP_CLASSES:
            trial_seed = next(trial_seeds)
            request = _gp_request(scenario, trial_seed, overrides)

            def call(cancel, request=request):
                return run_request(request, cancel=cancel)

            plan.append((scenario, f"{scenario}@{trial_seed}", call))
    return plan


def _race_plan(seed: int, minted: list) -> list:
    """RACE_JOBS_PER_SCENARIO rounds over the admitted minted scenarios,
    in mint order, under race, a trial seed per job.  The classes are
    the four defect families of the corpus, 6 to 14 jobs each: a
    family's median is not moved by the rare job that meets a candidate
    with a 2**32-bit register and runs five times as long."""
    from repro.api import repair_scenario
    from repro.mint.grading import GRADE_CONFIG

    config = GRADE_CONFIG.scaled(**RACE_BUDGET)
    trial_seeds = iter(_trial_seeds(seed, RACE_JOBS_PER_SCENARIO * len(minted)))
    plan = []
    for _ in range(RACE_JOBS_PER_SCENARIO):
        for item, scenario in minted:
            trial_seed = next(trial_seeds)

            def call(cancel, scenario=scenario, trial_seed=trial_seed):
                return repair_scenario(
                    scenario, engine="race", config=config, seeds=(trial_seed,), cancel=cancel,
                )

            plan.append((item.mutator, f"{item.scenario_id}@{trial_seed}", call))
    return plan


def run_direct(plan: list, deadline: float, tracer=None):
    """Run the jobs of ``plan`` closed-loop (one caller), then run them
    again, in the same order, pass after pass, until ``deadline``.

    Every run of a job is timed.  A fixed job list gives every class the
    same number of jobs however long one of them takes.  Every run of a
    job must return its first run's outcome.

    Returns the finished jobs, the errors of runs that raised, the
    problems found by comparing runs, and each job's repaired source by
    key (for the output checks).
    """
    jobs: dict[str, Job] = {}
    errors: list[dict] = []
    problems: list[str] = []
    repaired: dict[str, str] = {}

    def attempt(cls: str, key: str, call) -> str:
        """Time one run of a job: ``done``, ``failed`` or ``cut``."""
        cancel, fired = _deadline_probe(deadline)
        start = time.perf_counter()
        try:
            with tracer.job(key) if tracer else contextlib.nullcontext():
                outcome = call(cancel)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            errors.append({"key": key, "error": f"{type(exc).__name__}: {exc}"})
            return "failed"
        end = time.perf_counter()
        if fired:
            return "cut"  # cut by the window edge: not a finished run
        job = Job(
            cls=cls, key=key, timings=[[start, end]], plausible=outcome.plausible, fitness=outcome.fitness,
            eval_sims=outcome.eval_sims, repaired_sha=_sha(outcome.repaired_source),
        )
        first = jobs.setdefault(key, job)
        if first is not job:
            if outcome_tuple(asdict(job)) != outcome_tuple(asdict(first)):
                problems.append(f"{key}: run {len(first.timings) + 1} returned "
                                f"{outcome_tuple(asdict(job))}, run 1 {outcome_tuple(asdict(first))}")
            first.timings.append([start, end])
        if outcome.repaired_source is not None:
            repaired[key] = outcome.repaired_source
        return "done"

    replays = []
    for cls, key, call in plan:
        if time.monotonic() >= deadline:
            break
        status = attempt(cls, key, call)
        if status == "cut":
            break
        if status == "done":
            replays.append((cls, key, call))
    while replays and time.monotonic() < deadline:
        for cls, key, call in replays:
            if time.monotonic() >= deadline or attempt(cls, key, call) == "cut":
                break
    return list(jobs.values()), errors, problems, repaired


# ----------------------------------------------------------------------
# Output checks (outside the timed phase)
# ----------------------------------------------------------------------


def verify_repair(scenario, repaired_source: str) -> tuple[bool, bool]:
    """Re-check one plausible repair; returns ``(plausible, correct)``.

    ``plausible`` re-simulates the repaired design under the scenario's
    own testbench with a fresh simulator and requires fitness 1.0 — it
    must hold for every repair the engine called plausible.
    ``correct`` is the held-out grade (``Scenario.is_correct_repair``).
    """
    from repro.benchsuite.scenario import simulate_design_text
    from repro.core.fitness import evaluate_fitness

    trace = simulate_design_text(repaired_source, scenario.instrumented_testbench())
    plausible = evaluate_fitness(trace, scenario.oracle()).fitness >= 1.0
    return plausible, scenario.is_correct_repair(repaired_source)


def check_repairs(jobs: list[Job], repaired: dict, scenario_of) -> list[str]:
    """Verify every plausible repair and grade it; returns the problems.

    Sets ``job.correct``.  Repeats of one key (service-mix) are graded
    once.
    """
    problems: list[str] = []
    grades: dict[str, bool] = {}
    for job in jobs:
        if not job.plausible:
            continue
        if job.key not in grades:
            source = repaired.get(job.key)
            if source is None:
                problems.append(f"{job.key}: plausible outcome without repaired source")
                grades[job.key] = False
                continue
            plausible, grades[job.key] = verify_repair(scenario_of(job), source)
            if not plausible:
                problems.append(f"{job.key}: repair does not reproduce the oracle")
        job.correct = grades[job.key]
    return problems


def outcome_tuple(job: dict) -> tuple:
    """The fields two backends or two runs must agree on for one key."""
    return (job["plausible"], job["fitness"], job["eval_sims"], job["repaired_sha"])


def check_pool_parity(jobs: list[Job], seed: int) -> list[str]:
    """Re-run one pool job on the serial backend; outcomes must match.

    The class checked rotates with the seed, so ten seeds cover every
    class while each run pays for one extra job only.
    """
    from repro.api import run_request

    cls = GP_CLASSES[seed % len(GP_CLASSES)]
    job = next((j for j in jobs if j.cls == cls), None) or (jobs[0] if jobs else None)
    if job is None:
        return []
    scenario, trial_seed = job.key.split("@")
    outcome = run_request(_gp_request(scenario, int(trial_seed), {"backend": "serial"}))
    serial = {
        "plausible": outcome.plausible, "fitness": outcome.fitness,
        "eval_sims": outcome.eval_sims, "repaired_sha": _sha(outcome.repaired_source),
    }
    if outcome_tuple(asdict(job)) != outcome_tuple(serial):
        return [f"{job.key}: pool outcome {asdict(job)} != serial outcome {serial}"]
    return []


# ----------------------------------------------------------------------
# service-mix: an in-process daemon and two closed-loop clients
# ----------------------------------------------------------------------


class LifecycleLog:
    """Daemon observer timestamping job lifecycle events (traced runs)."""

    def __init__(self) -> None:
        self.events: list[tuple[float, object]] = []

    def on_event(self, event) -> None:
        self.events.append((time.perf_counter(), event))


class ServiceBox:
    """A RepairDaemon on a background thread, with journal and cache."""

    def __init__(self, work: Path, observers=()) -> None:
        from repro.core.config import RepairConfig
        from repro.service import RepairDaemon

        # ``work`` is relative (run.py): a socket path stays under the
        # AF_UNIX length limit however deep the checkout lies.
        self.socket_path = str(work / "d.sock")
        self.daemon = RepairDaemon(
            self.socket_path,
            base_config=RepairConfig(cache_dir=str(work / "cache")),
            max_jobs=2,
            journal_dir=str(work / "journal"),
            observers=list(observers),
        )
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        import asyncio

        asyncio.run(self.daemon.serve())

    def start(self):
        """Start serving; returns a client once the first ping answers."""
        from repro.service import ServiceClient

        self.thread.start()
        client = ServiceClient(self.socket_path, timeout=300)
        limit = time.monotonic() + 30
        while True:
            try:
                client.ping()
                return client
            except OSError:
                if time.monotonic() > limit or not self.thread.is_alive():
                    raise
                time.sleep(0.01)

    def dropped_events(self) -> int:
        """Telemetry events the daemon's streaming bridges dropped."""
        return sum(status.dropped_events for status in self.daemon.queue.statuses())

    def stop(self) -> None:
        """Drain the daemon and wait for its thread."""
        from repro.service import ServiceClient

        try:
            ServiceClient(self.socket_path, timeout=60).shutdown()
        except OSError:
            pass
        self.thread.join(timeout=120)
        if self.thread.is_alive():
            raise RuntimeError("repair daemon did not stop")


def _service_plan(seed: int):
    """Endless fresh keys: rounds over SERVICE_SCENARIOS in a seeded
    order, each submission with a GP seed no earlier one used."""
    from repro.service.jobs import RepairRequest

    rng = random.Random(seed)
    used: set[int] = set()
    while True:
        for scenario in rng.sample(SERVICE_SCENARIOS, len(SERVICE_SCENARIOS)):
            gp_seed = rng.randrange(1 << 20)
            while gp_seed in used:
                gp_seed = rng.randrange(1 << 20)
            used.add(gp_seed)
            request = RepairRequest(scenario=scenario, seeds=(gp_seed,), config=GP_BUDGET)
            yield f"{scenario}@{gp_seed}", request


def run_service(client, seed: int, deadline: float):
    """Closed loop: a cold and a warm client thread submit until ``deadline``.

    The cold client submits fresh keys, one after the other, so the
    daemon always runs one search against an empty cache, publishing to
    the disk cache and the journal.  Every key it finishes joins the
    warm client's list, which that client resubmits round-robin: each
    evaluation of a warm job is a disk-cache hit.  The two always
    overlap, so the mix a run sees does not move with the seed.
    Returns finished jobs (class ``cold`` or ``warm``), errors, outcome
    texts by key (every repeat), the repaired sources by key, and
    ``(job id, created the job, client latency)`` per finished
    submission.
    """
    plan = _service_plan(seed)
    lock = threading.Condition()
    jobs: list[Job] = []
    errors: list[dict] = []
    outcomes: dict[str, list[str]] = {}
    repaired: dict[str, str] = {}
    submissions: list[tuple[str, bool, float]] = []
    finished: list[tuple[str, object]] = []

    def submit(cls: str, key: str, request) -> bool:
        """One timed submission; True when the daemon returned ``done``."""
        start = time.perf_counter()
        try:
            admitted, response = client.submit(request)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            with lock:
                errors.append({"key": key, "error": f"{type(exc).__name__}: {exc}"})
            return False
        end = time.perf_counter()
        if response is None or response.status != "done":
            with lock:
                errors.append({
                    "key": key,
                    "error": f"status {getattr(response, 'status', None)} "
                             f"{getattr(response, 'error', '')}",
                })
            return False
        report = json.loads(response.outcome_json)
        with lock:
            jobs.append(
                Job(
                    cls=cls, key=key, timings=[[start, end]],
                    plausible=bool(report["plausible"]),
                    fitness=float(report["fitness"]),
                    eval_sims=int(report["eval_sims"]),
                    repaired_sha=_sha(report["repaired_source"]),
                )
            )
            submissions.append((response.job_id, admitted.submissions == 1, end - start))
            outcomes.setdefault(key, []).append(response.outcome_json)
            if report["repaired_source"] is not None:
                repaired[key] = report["repaired_source"]
        return True

    def cold() -> None:
        while time.monotonic() < deadline:
            key, request = next(plan)
            if submit("cold", key, request):
                with lock:
                    finished.append((key, request))
                    lock.notify_all()

    def warm() -> None:
        for turn in itertools.count():
            with lock:
                lock.wait_for(lambda: finished, timeout=max(0.0, deadline - time.monotonic()))
                if not finished or time.monotonic() >= deadline:
                    return
                key, request = finished[turn % len(finished)]
            submit("warm", key, request)

    threads = [threading.Thread(target=cold), threading.Thread(target=warm)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs, errors, outcomes, repaired, submissions


def check_repeats(outcomes: dict[str, list[str]]) -> list[str]:
    """Every repeat of a key must return the same outcome (bar timing)."""
    problems = []
    for key, texts in sorted(outcomes.items()):
        stripped = set()
        for text in texts:
            report = json.loads(text)
            report.pop("elapsed_seconds", None)
            stripped.add(json.dumps(report, sort_keys=True))
        if len(stripped) > 1:
            problems.append(f"{key}: {len(stripped)} distinct outcomes over {len(texts)} repeats")
    return problems


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------


def outcome_counts(jobs: list[Job], errors: list[dict]) -> dict[str, float]:
    """What the jobs returned: repairs found, held-out grades, failures."""
    attempted = len(jobs) + len(errors)
    return {
        "jobs": len(jobs),
        "plausible": sum(job.plausible for job in jobs),
        "correct": sum(job.correct for job in jobs),
        "fitness_mean": statistics.fmean(job.fitness for job in jobs) if jobs else 0.0,
        "error_rate": len(errors) / attempted if attempted else 0.0,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _setup(workload: str, work: Path, trace: bool) -> dict:
    """Everything before the first job; returns the workload's state."""
    state: dict = {}
    if workload in ("gp-table3", "gp-table3-pool"):
        from repro.api import run_request  # noqa: F401  (import cost is set-up)
        from repro.benchsuite import load_scenario
        from repro.core.config import RepairConfig

        base = RepairConfig(**GP_BUDGET)
        for name in GP_CLASSES:
            scenario = load_scenario(name)
            scenario.problem()
            scenario.suggested_config(base)
    elif workload == "race-minted":
        from repro.api import repair_scenario  # noqa: F401
        from repro.mint import MintConfig, mint_scenarios

        started = time.perf_counter()
        report = mint_scenarios(MintConfig(seed=MINT_SEED, count=MINT_COUNT))
        state["mint_s"] = time.perf_counter() - started
        minted = []
        for item in report.admitted:
            scenario = item.to_scenario()
            scenario.problem()
            minted.append((item, scenario))
        state["minted"] = minted
        ids = "\n".join(item.scenario_id for item, _ in minted)
        state["mint_digest"] = hashlib.sha256(ids.encode()).hexdigest()[:16]
    elif workload == "service-mix":
        lifecycle = LifecycleLog() if trace else None
        box = ServiceBox(work, observers=[lifecycle] if lifecycle else [])
        state["client"] = box.start()
        state["box"] = box
        state["lifecycle"] = lifecycle
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return state


def _measure(args, state: dict, tracer) -> dict:
    """The timed phase; returns its jobs, errors and collected outputs."""
    deadline = time.monotonic() + args.seconds
    started = time.perf_counter()
    measured: dict = {"outcomes": {}, "submissions": [], "problems": []}
    if args.workload == "service-mix":
        (measured["jobs"], measured["errors"], measured["outcomes"],
         measured["repaired"], measured["submissions"]) = run_service(
            state["client"], args.seed, deadline
        )
        measured["dropped_events"] = state["box"].dropped_events()
    else:
        if args.workload == "race-minted":
            plan = _race_plan(args.seed, state["minted"])
        else:
            pool = {"backend": "process", "workers": 2}
            plan = _gp_plan(args.seed, pool if args.workload == "gp-table3-pool" else {})
        (measured["jobs"], measured["errors"], measured["problems"],
         measured["repaired"]) = run_direct(plan, deadline, tracer)
    ended = time.perf_counter()
    measured["window_s"] = ended - started
    measured["window_span"] = [started, ended]
    measured["peak_rss_mb"] = _peak_rss_mb()
    return measured


def _check(args, state: dict, measured: dict) -> list[str]:
    """Every output check; returns the problems found."""
    from repro.benchsuite import load_scenario

    jobs = measured["jobs"]
    scenarios = {item.scenario_id: scenario for item, scenario in state.get("minted", ())}

    def scenario_of(job: Job):
        name = job.key.split("@")[0]
        if name not in scenarios:
            scenarios[name] = load_scenario(name)
        return scenarios[name]

    problems = measured["problems"] + check_repairs(jobs, measured["repaired"], scenario_of)
    if args.workload == "gp-table3-pool":
        problems += check_pool_parity(jobs, args.seed)
    problems += check_repeats(measured["outcomes"])
    if not jobs:
        problems.append("no job finished inside the measured window")
    return problems


def run(args) -> dict:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    store_failures = StoreFailures()
    logging.getLogger("repro.cache").addHandler(store_failures)
    state = _setup(args.workload, work, args.trace)
    ready = time.perf_counter()
    # Minting makes the inputs, not a user's set-up: it is reported on
    # its own, as mint_s.
    result: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "mint_s": state.get("mint_s", 0.0),
        "setup_s": ready - _ENTRY - state.get("mint_s", 0.0),
        "setup_span": [_ENTRY, ready],
    }
    box = state.get("box")
    if args.setup_only:
        if box is not None:
            box.stop()
        return result

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    try:
        measured = _measure(args, state, tracer)
    finally:
        if tracer is not None:
            uninstall()
        if box is not None:
            box.stop()

    problems = _check(args, state, measured)
    jobs, errors = measured["jobs"], measured["errors"]
    result.update(
        window_s=measured["window_s"],
        window_span=measured["window_span"],
        jobs=[asdict(job) for job in jobs],
        errors=errors,
        problems=problems,
        outcomes=outcome_counts(jobs, errors),
        store_put_failed=store_failures.count,
        peak_rss_mb=measured["peak_rss_mb"],
    )
    if "mint_digest" in state:
        result["mint_digest"] = state["mint_digest"]
        result["minted"] = len(state["minted"])
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer,
            window_s=measured["window_s"],
            store_put_failed=store_failures.count,
            mint=(state["mint_s"], len(state["minted"])) if "minted" in state else None,
            lifecycle=state["lifecycle"].events if state.get("lifecycle") else None,
            submissions=measured["submissions"],
            dropped_events=measured.get("dropped_events", 0),
            per_span_s=tracing.span_cost(),
        )
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="traced runs: write the spans here (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
