"""Command-line interface mirroring the original artifact's ``repair.py``.

The CirFix artifact is driven by a configuration file (``repair.conf``)
naming the faulty source, the testbench, the correctness information, and
the GP parameters.  This module reproduces that workflow::

    python -m repro repair --conf repair.conf
    python -m repro repair faulty.v testbench.v --golden golden.v
    python -m repro repair faulty.v testbench.v --golden golden.v --trace run.jsonl
    python -m repro repair faulty.v testbench.v --golden golden.v --engine synth
    python -m repro engines                       # registered repair engines
    python -m repro simulate design.v testbench.v
    python -m repro lint design.v                 # static analysis (L0xx rules)
    python -m repro scenarios                     # list the benchmark suite
    python -m repro report run.jsonl              # summarise a telemetry trace
    python -m repro serve --socket /tmp/repro.sock --cache-dir ~/.cache/repro
    python -m repro submit --socket /tmp/repro.sock counter_reset --seeds 0
    python -m repro jobs --socket /tmp/repro.sock # the daemon's job table

``repair.conf`` uses INI syntax:

.. code-block:: ini

    [project]
    source = faulty.v
    testbench = testbench.v
    ; one of the two oracle sources:
    golden = golden.v
    ; oracle = expected.csv

    [gp]
    population_size = 300
    max_generations = 8
    rt_threshold = 0.2
    mut_threshold = 0.7
    phi = 2.0
    seeds = 0,1,2
    max_wall_seconds = 600
    ; parallel candidate evaluation (see repro.core.backend):
    workers = 4
    backend = auto

The ``[gp]`` section accepts every :class:`repro.core.config.RepairConfig`
field; unknown keys are rejected with the offending key named.  CLI flags
(``--budget``, ``--population``, ``--workers``, ``--backend``) are applied
on top of the file.

``repair`` reads its files into a raw-text
:class:`~repro.service.jobs.RepairRequest` and runs it with
:func:`repro.api.run_request`, the path the daemon runs ``submit`` jobs
on, so ``repair`` and ``submit`` of the same files write the same report.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import sys
from pathlib import Path
from typing import Iterator

from .api import run_request, simulate
from .benchsuite import DEFECTS
from .core.config import BACKEND_NAMES, ConfigError, RepairConfig
from .core.engines import DEFAULT_ENGINE, engine_descriptions, engine_names
from .instrument.trace import SimulationTrace
from .service.jobs import RepairRequest


@contextlib.contextmanager
def _trace_observers(path: str | None) -> Iterator[list]:
    """The observers a ``--trace PATH`` flag asks for.

    Yields ``[]`` without a path; otherwise a JSONL trace observer that
    is closed on exit, after which stderr names the trace file.
    """
    if not path:
        yield []
        return
    from .obs import JsonlTraceObserver

    observer = JsonlTraceObserver(path)
    try:
        yield [observer]
    finally:
        observer.close()
        print(f"telemetry trace written to {path}", file=sys.stderr)


def cmd_repair(args: argparse.Namespace) -> int:
    """``repair`` subcommand: run CirFix on a defective design."""
    config = RepairConfig()
    seeds: tuple[int, ...] = tuple(args.seeds)
    if args.conf:
        ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not ini.read(args.conf):
            raise SystemExit(f"error: cannot read config file {args.conf}")
        if "project" not in ini:
            raise SystemExit(f"error: {args.conf} has no [project] section")
        project = ini["project"]
        source = Path(project["source"])
        testbench = project["testbench"]
        golden = project.get("golden")
        oracle = project.get("oracle")
        config, file_seeds = RepairConfig.from_file(args.conf)
        if file_seeds is not None:
            seeds = file_seeds
    else:
        if not args.source or not args.testbench:
            raise SystemExit("error: provide SOURCE TESTBENCH or --conf FILE")
        source = Path(args.source)
        testbench, golden, oracle = args.testbench, args.golden, args.oracle
    config = RepairConfig.from_cli_args(args, base=config)

    if args.log:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(message)s")

    # The files become the raw-text request `repro submit` sends, run
    # exactly as the daemon runs it.
    try:
        request = RepairRequest.from_files(
            source, testbench, golden, oracle, seeds=seeds, engine=args.engine
        ).validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    profiler = None
    with _trace_observers(args.trace) as observers:
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        try:
            outcome = run_request(request, base_config=config, observers=observers)
        except ValueError as exc:
            # A malformed oracle CSV is only parsed when the problem is built.
            raise SystemExit(f"error: {exc}")
        finally:
            if profiler is not None:
                profiler.disable()
    if profiler is not None:
        _report_profile(profiler, args)
    print(outcome.describe())
    if outcome.plausible and outcome.repaired_source is not None:
        print("repair patchlist:", outcome.patch.describe())
        out_path = Path(args.output) if args.output else source.with_suffix(".repaired.v")
        out_path.write_text(outcome.repaired_source)
        print(f"repaired design written to {out_path}")
        from .core.serialize import outcome_to_json

        report_path = out_path.with_suffix(".report.json")
        report_path.write_text(outcome_to_json(outcome, source.stem))
        print(f"repair report written to {report_path}")
        return 0
    print("no plausible repair found within the resource bounds")
    return 1


#: Rows of the cumulative-time profile printed to stdout by ``--profile``.
_PROFILE_TOP_N = 25


def _report_profile(profiler, args: argparse.Namespace) -> None:
    """Print the ``--profile`` summary (and write ``profile.txt``).

    Stdout gets the top :data:`_PROFILE_TOP_N` functions by cumulative
    time — enough to see where a repair run's wall-clock went.  When a
    telemetry trace is being written (``--trace``), the full unabridged
    statistics land in ``profile.txt`` next to it.

    Note: with ``--workers``/pool evaluation the profile covers only the
    engine's process; candidate simulations running in pool workers show
    up as pipe waits, so profile serial runs to see the simulator itself.
    """
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
    print(stream.getvalue(), end="")
    if args.trace:
        out_path = Path(args.trace).with_name("profile.txt")
        full = io.StringIO()
        pstats.Stats(profiler, stream=full).sort_stats("cumulative").print_stats()
        out_path.write_text(full.getvalue())
        print(f"full profile written to {out_path}", file=sys.stderr)


def cmd_simulate(args: argparse.Namespace) -> int:
    """``simulate`` subcommand: run a design under a testbench."""
    result = simulate(
        Path(args.source).read_text(),
        Path(args.testbench).read_text(),
        record=args.record,
        max_time=args.max_time,
    )
    for line in result.output:
        print(line)
    if args.record and result.trace:
        print(SimulationTrace.from_records(result.trace).to_csv(), end="")
    print(
        f"-- {'finished' if result.finished else 'stopped'} at t={result.time}"
        f" ({result.steps_used} statements, {result.events_executed} events)",
        file=sys.stderr,
    )
    return 0 if result.finished else 2


def cmd_engines(_args: argparse.Namespace) -> int:
    """``engines`` subcommand: list registered repair engines.

    One line per engine — name plus its registry description; the
    default engine is starred.  Exactly these names are valid for
    ``--engine`` on ``repair``, ``grade``, and ``submit``.
    """
    for name, description in sorted(engine_descriptions().items()):
        marker = "*" if name == DEFAULT_ENGINE else " "
        print(f"{marker} {name:8s} {description}")
    return 0


def cmd_scenarios(_args: argparse.Namespace) -> int:
    """``scenarios`` subcommand: list the benchmark defect scenarios."""
    for defect in DEFECTS:
        print(
            f"{defect.scenario_id:20s} cat{defect.category}  "
            f"{defect.project:22s} {defect.description}"
        )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``fuzz`` subcommand: run the differential fuzzing harness."""
    from .fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        backend=args.backend,
        workers=args.workers,
        cross_backend_every=args.cross_backend_every,
        shrink=args.shrink,
        corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
        inject_fault=args.inject_fault,
        check_logic=not args.no_logic,
    )
    try:
        with _trace_observers(args.trace) as observers:
            report = run_fuzz(config, observers=observers)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(report.to_text(), end="")
    return 0 if report.ok else 1


def cmd_mint(args: argparse.Namespace) -> int:
    """``mint`` subcommand: mint ground-truth defect scenarios."""
    from .mint import MUTATORS, MintConfig, mint_scenarios

    config = MintConfig(
        seed=args.seed,
        count=args.count,
        sources=tuple(args.sources.split(",")) if args.sources else ("fuzz", "bench"),
        bench_percent=args.bench_percent,
        mutators=(
            tuple(args.mutators.split(",")) if args.mutators else tuple(MUTATORS)
        ),
        shrink_rejected=args.shrink,
        shrink_budget=args.shrink_budget,
    )
    try:
        with _trace_observers(args.trace) as observers:
            report = mint_scenarios(config, observers=observers)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"minted scenarios written to {args.out}", file=sys.stderr)
    print(report.to_text(), end="")
    return 0 if report.admitted else 1


def cmd_grade(args: argparse.Namespace) -> int:
    """``grade`` subcommand: auto-grade a repair engine on minted scenarios.

    Re-mints the scenario set deterministically from ``--seed/--count``
    (no files to pass around), then runs the engine on every admitted
    scenario.  The summary is byte-identical across evaluation backends
    for a fixed seed, so CI can ``cmp`` serial vs process output.
    """
    from .mint import GRADE_CONFIG, MintConfig, grade_scenarios, mint_scenarios

    mint_config = MintConfig(
        seed=args.seed,
        count=args.count,
        sources=tuple(args.sources.split(",")) if args.sources else ("fuzz", "bench"),
        bench_percent=args.bench_percent,
        shrink_rejected=False,
    )
    try:
        with _trace_observers(args.trace) as observers:
            minted = mint_scenarios(mint_config).admitted
            if args.max_scenarios is not None:
                minted = minted[: args.max_scenarios]
            config = GRADE_CONFIG
            if args.workers is not None or args.backend is not None:
                config = config.scaled(
                    workers=args.workers if args.workers is not None else config.workers,
                    backend=args.backend if args.backend is not None else config.backend,
                )
            report = grade_scenarios(
                minted,
                seed=args.seed,
                engine=args.engine,
                config=config,
                seeds=tuple(args.seeds),
                observers=observers,
            )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.out:
        Path(args.out).write_text(report.to_text())
        print(f"grading summary written to {args.out}", file=sys.stderr)
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
        print(f"grading JSON written to {args.json_out}", file=sys.stderr)
    print(report.to_text(), end="")
    return 0 if minted else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """``lint`` subcommand: static analysis over Verilog sources.

    Exit codes are CI-friendly: 0 = clean, 1 = findings reported,
    2 = a file failed to lex/parse (no lint answer).
    """
    import json as json_mod

    from .hdl import LexError, ParseError
    from .lint import lint_text, resolve_rules

    try:
        rules = resolve_rules(args.rules)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    reports = {}
    for path in args.files:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise SystemExit(f"error: {exc}")
        try:
            reports[path] = lint_text(text, rules)
        except (ParseError, LexError) as exc:
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        if len(reports) == 1:
            print(next(iter(reports.values())).to_json())
        else:
            print(
                json_mod.dumps(
                    {
                        "files": {
                            path: json_mod.loads(report.to_json())
                            for path, report in reports.items()
                        }
                    },
                    indent=2,
                )
            )
    else:
        for path, report in reports.items():
            if len(reports) > 1:
                print(f"== {path} ==")
            print(report.to_text(), end="")
    return 0 if all(report.ok for report in reports.values()) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` subcommand: run the repair-as-a-service daemon.

    The daemon listens on a Unix socket, executes submitted jobs on the
    configured backends, and — with ``--cache-dir`` — shares a
    persistent evaluation cache across every job and restart.  See
    ``docs/service.md``.
    """
    import asyncio

    from .service import RepairDaemon

    config = RepairConfig()
    if args.conf:
        config, _ = RepairConfig.from_file(args.conf)
    config = RepairConfig.from_cli_args(args, base=config)
    daemon = RepairDaemon(
        args.socket,
        base_config=config,
        max_jobs=args.max_jobs,
        tenant_quota=args.tenant_quota,
        journal_dir=args.journal_dir,
        recover=args.recover,
        max_queue_depth=args.max_queue_depth,
    )

    async def _main() -> None:
        """Start the server, announce readiness, serve until shutdown."""
        ready = asyncio.Event()
        task = asyncio.ensure_future(daemon.serve(ready))
        await ready.wait()
        print(f"repro service listening on {args.socket}", file=sys.stderr)
        await task

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # Normally unreachable: the daemon installs a SIGINT handler
        # that drains gracefully.  A second Ctrl-C can still land here.
        print("interrupted; daemon stopped", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """``submit`` subcommand: send one repair job to a running daemon.

    Mirrors ``repair``'s exit codes (0 = plausible repair, 1 = none
    found, 2 = the job failed or was cancelled) and prints the same
    outcome report JSON on stdout, so ``submit`` output is directly
    comparable with a local run.
    """
    import json as json_mod

    from .service import ServiceClient, ServiceError

    overrides: dict[str, object] = {}
    for item in args.config or []:
        if "=" not in item:
            raise SystemExit(f"error: --config expects key=value (got {item!r})")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    fields = dict(
        config=overrides, seeds=tuple(args.seeds), engine=args.engine,
        tenant=args.tenant,
    )
    if args.scenario:
        request = RepairRequest(scenario=args.scenario, **fields)
    else:
        if not args.source or not args.testbench:
            raise SystemExit("error: provide a SCENARIO id or --source/--testbench")
        request = RepairRequest.from_files(
            args.source, args.testbench, args.golden, args.oracle, **fields
        )
    on_event = None
    if args.stream:

        def on_event(event) -> None:
            """Echo one streamed telemetry event as NDJSON on stderr."""
            print(json_mod.dumps(event.to_dict()), file=sys.stderr)

    client = ServiceClient(args.socket, timeout=args.timeout)
    try:
        status, response = client.submit(
            request,
            wait=not args.no_wait,
            stream=args.stream,
            on_event=on_event,
            retries=args.retries,
        )
    except (ServiceError, OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    if response is None:
        print(status.to_json())
        return 0
    if response.status != "done":
        print(response.to_json())
        print(f"job {response.status}: {response.error}", file=sys.stderr)
        return 2
    print(response.outcome_json)
    cache = response.cache
    print(
        f"job {status.job_id}: plausible={response.plausible} "
        f"fitness={response.fitness:.6f} "
        f"cache hit rate {cache.get('hit_rate', 0.0):.0%} "
        f"({cache.get('store_hits', 0)} hits / {cache.get('store_misses', 0)} misses)",
        file=sys.stderr,
    )
    return 0 if response.plausible else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    """``jobs`` subcommand: print a running daemon's job table."""
    import json as json_mod

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.socket, timeout=args.timeout)
    try:
        rows = client.jobs()
    except (ServiceError, OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json_mod.dumps([row.to_dict() for row in rows], indent=2))
        return 0
    for row in rows:
        line = (
            f"{row.job_id:24s} {row.state:10s} {row.tenant:12s} "
            f"{row.scenario:20s} x{row.submissions}"
        )
        if row.error:
            line += f"  {row.error}"
        print(line)
    if not rows:
        print("no jobs", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report`` subcommand: summarise a ``run.jsonl`` telemetry trace."""
    from .obs.report import report_text

    try:
        print(report_text(args.trace))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="CirFix reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_repair = sub.add_parser("repair", help="repair a defective design")
    p_repair.add_argument("source", nargs="?", help="faulty design .v")
    p_repair.add_argument("testbench", nargs="?", help="testbench .v")
    p_repair.add_argument("--golden", help="previously-functioning design .v")
    p_repair.add_argument("--oracle", help="expected-behaviour CSV (Figure 2 shape)")
    p_repair.add_argument("--conf", help="repair.conf configuration file")
    p_repair.add_argument("--output", help="where to write the repaired design")
    p_repair.add_argument(
        "--engine", choices=engine_names(), default=DEFAULT_ENGINE,
        help="registered repair engine: 'cirfix' (GP search), 'synth' "
        "(template synthesis), or 'race' (synth, then GP if synth fails) "
        f"(default: {DEFAULT_ENGINE}; see `python -m repro engines`)",
    )
    p_repair.add_argument("--budget", type=float, help="wall-clock seconds per trial")
    p_repair.add_argument("--population", type=int, help="GP population size")
    p_repair.add_argument(
        "--workers", type=int,
        help="worker processes for candidate evaluation (default 1)",
    )
    p_repair.add_argument(
        "--backend", choices=BACKEND_NAMES,
        help="candidate-evaluation backend (default: auto)",
    )
    p_repair.add_argument(
        "--profile", action="store_true",
        help="profile the run under cProfile; prints the top cumulative "
        "functions, and with --trace also writes profile.txt next to it",
    )
    p_repair.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_repair.add_argument(
        "--trace", help="write a repro.obs JSONL telemetry trace to this path"
    )
    p_repair.add_argument(
        "--eval-deadline", dest="eval_deadline_seconds", type=float, metavar="SECONDS",
        help="per-candidate wall-clock deadline enforced by the supervised "
        "pool (0 disables; default 600)",
    )
    p_repair.add_argument(
        "--worker-mem-mb", dest="worker_mem_mb", type=int, metavar="MIB",
        help="per-worker address-space cap in MiB (RLIMIT_AS; 0 = no cap)",
    )
    p_repair.add_argument(
        "--lint-gate", dest="lint_gate", action="store_true", default=None,
        help="reject candidates that add lint violations before simulating them",
    )
    p_repair.add_argument(
        "--lint-gate-rules", dest="lint_gate_rules", metavar="SPEC",
        help="comma-separated rule codes/slugs the gate compares "
        "(default: multi-driver,inferred-latch,comb-loop; 'all' for every rule)",
    )
    p_repair.add_argument(
        "--cache-dir", dest="cache_dir", metavar="DIR",
        help="persistent sharded evaluation cache directory (shared across "
        "runs and with the service daemon; empty = memory-only)",
    )
    p_repair.add_argument(
        "--cache-max-mb", dest="cache_max_mb", type=int, metavar="MIB",
        help="LRU byte budget of the persistent cache in MiB (0 = unbounded)",
    )
    p_repair.add_argument(
        "--log", action="store_true", help="print per-generation progress logs"
    )
    p_repair.set_defaults(func=cmd_repair)

    p_sim = sub.add_parser("simulate", help="run a design under a testbench")
    p_sim.add_argument("source")
    p_sim.add_argument("testbench")
    p_sim.add_argument("--record", action="store_true", help="instrument and dump the trace CSV")
    p_sim.add_argument("--max-time", type=int, default=1_000_000)
    p_sim.set_defaults(func=cmd_simulate)

    p_list = sub.add_parser("scenarios", help="list the 32 benchmark defect scenarios")
    p_list.set_defaults(func=cmd_scenarios)

    p_engines = sub.add_parser(
        "engines", help="list registered repair engines (* marks the default)"
    )
    p_engines.set_defaults(func=cmd_engines)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the parser/simulator/templates with differential oracles"
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p_fuzz.add_argument(
        "--count", type=int, default=25, help="number of programs (default 25)"
    )
    p_fuzz.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="evaluation path for the self-fitness oracle (default: serial)",
    )
    p_fuzz.add_argument("--workers", type=int, default=2)
    p_fuzz.add_argument(
        "--cross-backend-every", type=int, default=10, metavar="N",
        help="serial-vs-process differential on every Nth program (0 disables)",
    )
    p_fuzz.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="keep full failing programs instead of delta-reducing them",
    )
    p_fuzz.add_argument(
        "--corpus-dir", help="write shrunk reproducers here (tests/fuzz/corpus)"
    )
    p_fuzz.add_argument(
        "--inject-fault", help="plant a known codegen fault (mutation smoke)"
    )
    p_fuzz.add_argument(
        "--no-logic", action="store_true",
        help="skip the once-per-run 4-state logic property sweep",
    )
    p_fuzz.add_argument(
        "--trace", help="write a repro.obs JSONL telemetry trace to this path"
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_mint = sub.add_parser(
        "mint", help="mint ground-truth defect scenarios from golden designs"
    )
    p_mint.add_argument("--seed", type=int, default=0, help="mint seed (default 0)")
    p_mint.add_argument(
        "--count", type=int, default=50, help="mint attempts (default 50)"
    )
    p_mint.add_argument(
        "--sources", metavar="LIST",
        help="comma-separated base suppliers: fuzz,bench (default both)",
    )
    p_mint.add_argument(
        "--bench-percent", type=int, default=20, metavar="PCT",
        help="percentage of attempts drawn from benchsuite bases (default 20)",
    )
    p_mint.add_argument(
        "--mutators", metavar="LIST",
        help="comma-separated mutator names to enable (default: all)",
    )
    p_mint.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="skip ddmin-shrinking unobservable fuzz mutants",
    )
    p_mint.add_argument(
        "--shrink-budget", type=int, default=128, metavar="N",
        help="max replays per shrink (default 128)",
    )
    p_mint.add_argument(
        "--out", help="write the minted scenario set (JSON) to this path"
    )
    p_mint.add_argument(
        "--trace", help="write a repro.obs JSONL telemetry trace to this path"
    )
    p_mint.set_defaults(func=cmd_mint)

    p_grade = sub.add_parser(
        "grade", help="auto-grade a repair engine on minted scenarios"
    )
    p_grade.add_argument("--seed", type=int, default=0, help="mint seed (default 0)")
    p_grade.add_argument(
        "--count", type=int, default=10, help="mint attempts to grade (default 10)"
    )
    p_grade.add_argument(
        "--max-scenarios", type=int, metavar="N",
        help="grade at most the first N admitted scenarios",
    )
    p_grade.add_argument(
        "--sources", metavar="LIST",
        help="comma-separated base suppliers: fuzz,bench (default both)",
    )
    p_grade.add_argument(
        "--bench-percent", type=int, default=20, metavar="PCT",
        help="percentage of attempts drawn from benchsuite bases (default 20)",
    )
    p_grade.add_argument(
        "--engine", choices=engine_names(), default=DEFAULT_ENGINE,
        help=f"registered repair engine to grade (default: {DEFAULT_ENGINE})",
    )
    p_grade.add_argument(
        "--backend", choices=("serial", "process"),
        help="candidate-evaluation backend (default: grading config's)",
    )
    p_grade.add_argument(
        "--workers", type=int, help="evaluation workers for --backend process"
    )
    p_grade.add_argument(
        "--seeds", type=int, nargs="+", default=[0], metavar="SEED",
        help="repair trial seeds per scenario (default: 0)",
    )
    p_grade.add_argument(
        "--out", help="write the byte-stable text summary to this path"
    )
    p_grade.add_argument(
        "--json-out", help="write the JSON grading payload to this path"
    )
    p_grade.add_argument(
        "--trace", help="write a repro.obs JSONL telemetry trace to this path"
    )
    p_grade.set_defaults(func=cmd_grade)

    p_lint = sub.add_parser("lint", help="static analysis over Verilog sources")
    p_lint.add_argument("files", nargs="+", help="Verilog source files to lint")
    p_lint.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    p_lint.add_argument(
        "--rules", metavar="SPEC",
        help="comma-separated rule codes/slugs to run (default: all)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_report = sub.add_parser("report", help="summarise a telemetry trace (run.jsonl)")
    p_report.add_argument("trace", help="JSONL trace written by --trace or the experiments")
    p_report.set_defaults(func=cmd_report)

    p_serve = sub.add_parser("serve", help="run the repair-as-a-service daemon")
    p_serve.add_argument(
        "--socket", required=True, help="Unix socket path to listen on"
    )
    p_serve.add_argument("--conf", help="repair.conf providing the base [gp] config")
    p_serve.add_argument(
        "--max-jobs", dest="max_jobs", type=int, default=2,
        help="repair jobs executing concurrently (default 2)",
    )
    p_serve.add_argument(
        "--tenant-quota", dest="tenant_quota", type=int, default=2,
        help="max concurrently running jobs per tenant (default 2)",
    )
    p_serve.add_argument(
        "--cache-dir", dest="cache_dir", metavar="DIR",
        help="persistent sharded evaluation cache shared by all jobs",
    )
    p_serve.add_argument(
        "--cache-max-mb", dest="cache_max_mb", type=int, metavar="MIB",
        help="LRU byte budget of the persistent cache in MiB (0 = unbounded)",
    )
    p_serve.add_argument(
        "--journal-dir", dest="journal_dir", metavar="DIR",
        help="durable job journal for crash recovery (admissions, "
        "completions, and engine checkpoints are write-ahead logged)",
    )
    p_serve.add_argument(
        "--recover", action="store_true",
        help="replay the journal on startup and re-admit unfinished jobs "
        "(requires --journal-dir)",
    )
    p_serve.add_argument(
        "--max-queue-depth", dest="max_queue_depth", type=int, default=0,
        help="shed new submissions with a typed 'overloaded' error once "
        "this many jobs are queued (0 = unbounded, the default)",
    )
    p_serve.add_argument(
        "--workers", type=int,
        help="worker processes per job's evaluation backend",
    )
    p_serve.add_argument(
        "--backend", choices=BACKEND_NAMES,
        help="candidate-evaluation backend for jobs (default: auto)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser("submit", help="submit a repair job to a daemon")
    p_submit.add_argument("scenario", nargs="?", help="benchmark scenario id")
    p_submit.add_argument("--socket", required=True, help="the daemon's Unix socket")
    p_submit.add_argument("--source", help="faulty design .v (instead of a scenario)")
    p_submit.add_argument("--testbench", help="testbench .v (with --source)")
    p_submit.add_argument("--golden", help="previously-functioning design .v")
    p_submit.add_argument("--oracle", help="expected-behaviour CSV (Figure 2 shape)")
    p_submit.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_submit.add_argument(
        "--engine", choices=engine_names(), default=DEFAULT_ENGINE,
        help="registered repair engine the daemon should run "
        f"(default: {DEFAULT_ENGINE}; see `python -m repro engines`)",
    )
    p_submit.add_argument(
        "--tenant", default="default", help="fair-share scheduling bucket"
    )
    p_submit.add_argument(
        "--config", action="append", metavar="KEY=VALUE",
        help="config override applied on the server (repeatable)",
    )
    p_submit.add_argument(
        "--stream", action="store_true",
        help="stream the run's telemetry events to stderr as NDJSON",
    )
    p_submit.add_argument(
        "--no-wait", dest="no_wait", action="store_true",
        help="return right after admission instead of waiting for the result",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None,
        help="socket timeout in seconds (default: wait forever)",
    )
    p_submit.add_argument(
        "--retries", type=int, default=0,
        help="resubmit up to N times on unavailable/overloaded/interrupted "
        "errors with capped exponential backoff (safe: the daemon dedups "
        "identical requests, so a retry joins rather than duplicates)",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser("jobs", help="list a running daemon's jobs")
    p_jobs.add_argument("--socket", required=True, help="the daemon's Unix socket")
    p_jobs.add_argument(
        "--json", action="store_true", help="machine-readable table on stdout"
    )
    p_jobs.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout in seconds (default 10)",
    )
    p_jobs.set_defaults(func=cmd_jobs)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:  # e.g. piped into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
