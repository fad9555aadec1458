"""Benchmark: crash recovery of the journaled repair service.

A real chaos run, measured end to end and written to
``BENCH_crash_recovery.json`` at the repo root:

1. start a journaled daemon as a subprocess (``repro serve
   --journal-dir``), submit a multi-generation repair with a streaming
   client, and ``kill -9`` the daemon once the streamed events show the
   engine has finished generation 2;
2. restart with ``--recover`` and measure **recovery latency** — from
   the restart exec to the recovered job's terminal response (a client
   re-attaches by resubmitting, which dedup-joins the recovered job);
3. report the **warm-resume hit rate**: the recovered job runs again from
   the start, and its deterministic replay runs out of the persistent
   eval cache, so every pre-crash evaluation costs a disk hit instead of
   a simulation;
4. assert the recovered outcome is bit-identical (minus wall clock) to
   a direct uninterrupted run of the same request.

The scenario is ``fsm_case`` under a budget that runs its full 8
generations (~9 s cold, no early plausible exit), so the kill reliably
lands mid-search and the replayed prefix is a real fraction of the work.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import run_request
from repro.core.config import RepairConfig
from repro.core.serialize import outcome_to_json
from repro.service import RepairRequest, ServiceClient
from repro.service.journal import JobJournal

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULTS: dict[str, object] = {"scenario": "fsm_case", "cpu_count": os.cpu_count()}

#: Full-budget search with no early exit: 8 generations.
_CONFIG = {
    "population_size": 60,
    "max_generations": 8,
    "max_fitness_evals": 2000,
    "max_wall_seconds": 120.0,
    "minimize_budget": 32,
}


class _KillNow(Exception):
    """Raised from the event callback to stop reading the job's stream."""


def _request() -> RepairRequest:
    return RepairRequest(scenario="fsm_case", config=dict(_CONFIG), seeds=(0,))


def _spawn_daemon(socket_path: str, cache_dir: str, journal_dir: str,
                  recover: bool) -> subprocess.Popen:
    """Launch ``repro serve`` as a real subprocess (kill -9 target)."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--socket", socket_path,
        "--cache-dir", cache_dir,
        "--journal-dir", journal_dir,
        "--max-jobs", "1",
    ]
    if recover:
        argv.append("--recover")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        argv, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_ready(socket_path: str, timeout: float = 30.0) -> ServiceClient:
    client = ServiceClient(socket_path, timeout=600)
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.ping()
            return client
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def test_crash_recovery(once):
    tmp = tempfile.mkdtemp(prefix="repro-bench-crash-")
    socket_path = os.path.join(tmp, "repro.sock")
    cache_dir = os.path.join(tmp, "cache")
    journal_dir = os.path.join(tmp, "journal")
    request = _request()

    def chaos():
        numbers: dict[str, object] = {}

        # Uninterrupted baseline, directly in-process (no cache: the
        # determinism contract makes cache tiers outcome-invariant).
        start = time.monotonic()
        direct = run_request(request, base_config=RepairConfig())
        numbers["direct_seconds"] = time.monotonic() - start

        # Phase 1: journaled daemon, submit, kill -9 mid-search.
        victim = _spawn_daemon(socket_path, cache_dir, journal_dir, recover=False)
        try:
            client = _wait_ready(socket_path)
            submitted = time.monotonic()
            streamed: dict[str, object] = {}

            def on_event(event) -> None:
                # Kill once the engine has finished generation 2, so the
                # replayed prefix is a real fraction of the search.
                if event.type == "job_started":
                    streamed["job_id"] = event.job_id
                elif event.type == "generation_completed" and event.generation >= 2:
                    streamed["generation"] = event
                    raise _KillNow

            try:
                client.submit(request, stream=True, on_event=on_event)
            except _KillNow:
                pass
            else:
                raise AssertionError("job finished before generation 2")
            numbers["pre_crash_seconds"] = time.monotonic() - submitted
            at_kill = streamed["generation"]
            numbers["generation_at_kill"] = at_kill.generation
            numbers["pre_crash_eval_sims"] = at_kill.eval_sims
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        # The kill must have landed mid-job, or the chaos run is void.
        journal = JobJournal(journal_dir)
        unfinished = journal.unfinished()
        assert len(unfinished) == 1, "job finished before the kill landed"
        assert unfinished[0].job_id == streamed["job_id"]

        # Phase 2: restart with --recover; re-attach by resubmitting.
        restarted_at = time.monotonic()
        survivor = _spawn_daemon(socket_path, cache_dir, journal_dir, recover=True)
        try:
            client = _wait_ready(socket_path)
            joined, response = client.submit(request, retries=2)
            numbers["recovery_latency_seconds"] = time.monotonic() - restarted_at
        finally:
            try:
                ServiceClient(socket_path, timeout=30).shutdown()
            except OSError:
                pass
            try:
                survivor.wait(timeout=60)
            except subprocess.TimeoutExpired:
                survivor.kill()

        assert joined.job_id == streamed["job_id"], "client did not re-attach"
        assert response.status == "done"
        numbers["warm_resume_hit_rate"] = response.cache["hit_rate"]
        numbers["warm_resume_store_hits"] = response.cache["store_hits"]
        numbers["warm_resume_store_misses"] = response.cache["store_misses"]

        # Bit-identical to the uninterrupted run (minus wall clock).
        want = json.loads(outcome_to_json(direct, "fsm_case"))
        got = json.loads(response.outcome_json)
        for report in (want, got):
            report.pop("elapsed_seconds")
        assert got == want, "recovered outcome diverged from direct run"
        numbers["outcome_bit_identical"] = True

        # Journal is clean again: the recovered job has its terminal record.
        assert journal.unfinished() == []
        return numbers

    numbers = once(chaos)
    numbers["recovery_speedup_vs_cold"] = (
        numbers["direct_seconds"] / numbers["recovery_latency_seconds"]
        if numbers["recovery_latency_seconds"] > 0
        else float("inf")
    )
    _RESULTS["crash_recovery"] = numbers
    (_REPO_ROOT / "BENCH_crash_recovery.json").write_text(
        json.dumps(_RESULTS, indent=2) + "\n"
    )
    # The replayed prefix must be warm: every evaluation scored before the
    # kill was published to the store, so the replay hits each of them.
    assert numbers["warm_resume_store_hits"] >= numbers["pre_crash_eval_sims"], numbers
    assert numbers["warm_resume_hit_rate"] >= 0.3, numbers
