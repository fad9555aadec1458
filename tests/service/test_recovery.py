"""Crash-recovery tests: engine resume, daemon recovery, backpressure.

The recovery model under test (``docs/service.md``, "Operations"):

1. engines checkpoint their deterministic cursor at every generation
   boundary; recovery replays the search from the start with the
   persistent eval cache warm, so the replay is bit-identical to an
   uninterrupted run and reaches the pre-crash cursor at cache speed;
2. the daemon journals every admission/start/completion and, with
   ``recover=True``, re-admits unfinished journaled jobs on startup;
3. admission sheds new work with a typed ``overloaded`` error once the
   queue is full, and the client retries idempotently (dedup joins).
"""

import asyncio
import json
import threading
import time

import pytest

from repro.api import run_request
from repro.cache import PersistentEvalCache
from repro.core.backend import open_eval_store
from repro.core.config import RepairConfig
from repro.core.serialize import outcome_to_json
from repro.obs.events import WALL_TIME_FIELDS
from repro.obs.observer import RecordingObserver
from repro.service import (
    RepairDaemon,
    RepairRequest,
    ServiceClient,
    ServiceInterruptedError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service.daemon import _Broadcast
from repro.service.journal import JobJournal, JournalCheckpointSink
from repro.obs.bridge import AsyncEventBridge

#: Tiny search: ~23 unique evaluations on counter_reset, a few seconds.
TINY = {"population_size": 8, "max_generations": 3}


@pytest.fixture(autouse=True)
def _fresh_store_registry():
    PersistentEvalCache.reset_shared()
    yield
    PersistentEvalCache.reset_shared()


def tiny_request(cache_dir: str = "", backend: str = "serial", **kwargs):
    config = dict(TINY, backend=backend)
    if backend == "process":
        config["workers"] = 2
    if cache_dir:
        config["cache_dir"] = cache_dir
    return RepairRequest(
        scenario="counter_reset", config=config, seeds=(0,), **kwargs
    )


def event_fingerprint(events):
    """Event dicts minus wall-clock fields — the determinism fingerprint."""
    out = []
    for event in events:
        data = event.to_dict()
        for field in WALL_TIME_FIELDS:
            data.pop(field, None)
        out.append(data)
    return out


class DaemonHarness:
    """Run one daemon on a background event-loop thread."""

    def __init__(self, tmp_path, name: str, **kwargs):
        self.socket_path = str(tmp_path / f"{name}.sock")
        self.daemon = RepairDaemon(self.socket_path, **kwargs)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.serve()), daemon=True
        )

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        client = ServiceClient(self.socket_path, timeout=180)
        deadline = time.monotonic() + 10
        while True:
            try:
                client.ping()
                return client
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def __exit__(self, *exc) -> None:
        try:
            ServiceClient(self.socket_path, timeout=10).shutdown()
        except OSError:
            pass
        self.thread.join(timeout=120)
        assert not self.thread.is_alive(), "daemon failed to drain"


class TestEngineResume:
    """Checkpoint + warm-cache replay is bit-identical to an unbroken run."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_resume_is_bit_identical_and_warm(self, tmp_path, backend):
        self.crash_and_resume(tmp_path, backend, crash_after=2)

    # On counter_reset under TINY the synth leg fails, so a race job
    # saves five synth snapshots (one per template round) and then four
    # GP ones.  Crash after the second synth snapshot, or after the
    # second GP one.
    @pytest.mark.parametrize(
        "crash_after, leg", [(2, "synth"), (7, "cirfix")],
        ids=["synth-leg", "gp-leg"],
    )
    def test_race_resumes_in_either_leg(self, tmp_path, crash_after, leg):
        self.crash_and_resume(
            tmp_path, "serial", crash_after, engine="race", leg=leg
        )

    def crash_and_resume(self, tmp_path, backend, crash_after, leg="cirfix",
                         **request):
        """Crash a job after ``crash_after`` checkpoints, in engine
        ``leg``, resume it, and check it against an uncrashed run."""
        job_id = "job-1-deadbeef"

        # Uninterrupted baseline (own cache + journal so it stays cold).
        baseline_req = tiny_request(str(tmp_path / "cache-b"), backend, **request)
        baseline_sink = JournalCheckpointSink(
            JobJournal(tmp_path / "journal-b"), job_id
        )
        baseline_obs = RecordingObserver()
        baseline = run_request(
            baseline_req,
            observers=[baseline_obs],
            checkpoint=baseline_sink.save,
        )

        # "Crash" after the chosen checkpoint: cooperative cancel fires
        # at a generation boundary, exactly like a kill landing between
        # generations — the journal holds a genuine mid-search cursor
        # and the persistent cache holds every pre-crash evaluation.
        crashed_req = tiny_request(str(tmp_path / "cache-a"), backend, **request)
        journal = JobJournal(tmp_path / "journal-a")
        crash_sink = JournalCheckpointSink(journal, job_id)
        crash_store = open_eval_store(crashed_req.resolved_config())
        run_request(
            crashed_req,
            cancel=lambda: crash_sink.saves >= crash_after,
            checkpoint=crash_sink.save,
        )
        assert journal.load_checkpoint(job_id)["engine"] == leg
        # Every pre-crash store miss wrote an entry the replay can hit.
        pre_crash_misses = crash_store.misses
        assert pre_crash_misses > 0

        # Resume: same cache, full budget, sink primed with the snapshot.
        PersistentEvalCache.reset_shared()  # simulate a fresh process
        resume_sink = JournalCheckpointSink(journal, job_id)
        assert resume_sink.load() is not None
        resume_obs = RecordingObserver()
        store = open_eval_store(crashed_req.resolved_config())
        hits_before = store.hits
        resumed = run_request(
            crashed_req,
            observers=[resume_obs],
            checkpoint=resume_sink.save,
        )

        # The replay crossed the journaled cursor bit-exactly.
        assert resume_sink.verified is True
        # Outcome parity with the never-crashed run (modulo wall clock).
        reports = []
        for outcome in (baseline, resumed):
            data = json.loads(outcome_to_json(outcome, "counter_reset"))
            data.pop("elapsed_seconds")
            reports.append(data)
        assert reports[0] == reports[1]
        assert resumed.eval_sims == baseline.eval_sims
        # Event-stream parity (checkpoint events included on both sides).
        assert event_fingerprint(resume_obs.events) == event_fingerprint(
            baseline_obs.events
        )
        # Recovery ran warm: every pre-crash evaluation was a disk hit.
        assert store.hits - hits_before >= pre_crash_misses


class TestDaemonRecovery:
    """``recover=True`` re-admits unfinished journaled jobs on startup."""

    def test_recovered_job_completes_and_clients_reattach(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        request = tiny_request(cache_dir)
        job_id = f"job-1-{request.job_key()[:8]}"
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)

        # Fabricate the instant a kill -9 landed: the job was journaled
        # admitted + started and the engine had checkpointed one
        # generation (a genuine snapshot from a cancelled partial run).
        sink = JournalCheckpointSink(journal, job_id)
        run_request(
            request, cancel=lambda: sink.saves >= 2, checkpoint=sink.save
        )
        journal.record_admitted(job_id, request.to_dict())
        journal.record_started(job_id)
        assert [r.job_id for r in journal.unfinished()] == [job_id]

        PersistentEvalCache.reset_shared()  # new daemon process
        lifecycle = RecordingObserver()
        harness = DaemonHarness(
            tmp_path,
            "d",
            base_config=RepairConfig(),
            journal_dir=journal_dir,
            recover=True,
            observers=[lifecycle],
        )
        with harness as client:
            # The client re-attaches by resubmitting: dedup joins the
            # recovered in-flight job instead of duplicating it.
            status, response = client.submit(request)
        assert status.job_id == job_id
        assert status.submissions >= 2  # recovery + our resubmission
        assert response.status == "done"

        recovered = [e for e in lifecycle.events if e.type == "job_recovered"]
        assert len(recovered) == 1
        assert recovered[0].job_id == job_id
        assert recovered[0].attempts == 2
        assert recovered[0].had_checkpoint is True
        assert recovered[0].cursor >= 1

        # The deterministic replay verified against the crash snapshot.
        runtime = harness.daemon._runtimes[job_id]
        assert runtime.checkpoint.verified is True

        # Outcome parity with a direct run of the same request.
        direct = run_request(request)
        want = json.loads(outcome_to_json(direct, "counter_reset"))
        got = json.loads(response.outcome_json)
        for data in (want, got):
            data.pop("elapsed_seconds")
        assert got == want

        # Terminal record journaled; checkpoint discarded; nothing left.
        assert journal.get(job_id).state == "done"
        assert journal.load_checkpoint(job_id) is None
        assert journal.unfinished() == []

    def test_poison_and_garbage_records_fail_instead_of_looping(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)
        request = tiny_request()
        journal.record_admitted(
            "job-1-aaaaaaaa", request.to_dict(), attempts=4
        )  # crossed MAX_RECOVERY_ATTEMPTS
        journal.record_admitted("job-2-bbbbbbbb", {"schema_version": 99})
        with DaemonHarness(
            tmp_path, "d", journal_dir=journal_dir, recover=True
        ) as client:
            assert client.jobs() == []  # neither job was re-admitted
        poisoned = journal.get("job-1-aaaaaaaa")
        assert poisoned.state == "failed"
        assert "poison" in poisoned.error
        garbage = journal.get("job-2-bbbbbbbb")
        assert garbage.state == "failed"
        assert "unrecoverable" in garbage.error

    def test_graceful_drain_leaves_no_unfinished_records(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with DaemonHarness(
            tmp_path, "d", journal_dir=journal_dir, max_jobs=1
        ) as client:
            slow = RepairRequest(
                scenario="counter_reset", config=dict(TINY), seeds=tuple(range(16))
            )
            threading.Thread(
                target=lambda: client.submit(slow), daemon=True
            ).start()
            queued = tiny_request(tenant="other")
            deadline = time.monotonic() + 30
            while not any(r.state == "running" for r in client.jobs()):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            client.submit(queued, wait=False)
            # Exit the context: shutdown drains the running job and
            # cancels the queued one.
        journal = JobJournal(journal_dir)
        assert journal.unfinished() == []
        states = {r.job_id: r.state for r in journal.records()}
        assert len(states) == 2
        assert set(states.values()) <= {"done", "cancelled"}


class TestBackpressure:
    """A full queue sheds new submissions with a typed overloaded error."""

    def test_shed_with_hint_and_joins_exempt(self, tmp_path):
        slow = RepairRequest(
            scenario="counter_reset", config=dict(TINY), seeds=tuple(range(16))
        )
        queued = tiny_request(tenant="q")
        shed_events = RecordingObserver()
        with DaemonHarness(
            tmp_path,
            "d",
            max_jobs=1,
            max_queue_depth=1,
            observers=[shed_events],
        ) as client:
            threading.Thread(
                target=lambda: client.submit(slow), daemon=True
            ).start()
            deadline = time.monotonic() + 30
            while not any(r.state == "running" for r in client.jobs()):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            client.submit(queued, wait=False)  # fills the queue (depth 1)
            # Distinct seeds: a different job key, so no join exemption.
            victim = RepairRequest(
                scenario="counter_reset", config=dict(TINY), seeds=(5,),
                tenant="victim",
            )
            with pytest.raises(ServiceOverloadedError) as info:
                client.submit(victim, wait=False)
            assert info.value.retry_after_hint >= 1.0
            # Joining in-flight work adds no depth, so it is never shed.
            status, _ = client.submit(queued, wait=False)
            assert status.submissions == 2
            for row in client.jobs():
                client.cancel(row.job_id)
        shed = [e for e in shed_events.events if e.type == "job_shed"]
        assert len(shed) == 1
        assert shed[0].queue_depth == 1
        assert shed[0].retry_after_hint >= 1.0


class TestClientRetry:
    """Typed errors and idempotent resubmission with backoff."""

    def test_unavailable_names_the_socket_and_is_oserror(self, tmp_path):
        missing = str(tmp_path / "nothing.sock")
        client = ServiceClient(missing, timeout=1)
        with pytest.raises(ServiceUnavailableError) as info:
            client.ping()
        assert missing in str(info.value)
        assert info.value.socket_path == missing
        assert isinstance(info.value, OSError)  # legacy handlers still work

    def test_submit_retries_with_deterministic_backoff(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nothing.sock"), timeout=1)
        delays: list[float] = []
        with pytest.raises(ServiceUnavailableError):
            client.submit(
                tiny_request(), retries=3, backoff_base=0.5, sleep=delays.append
            )
        assert len(delays) == 3  # one sleep between each of 4 attempts
        # Exponential shape with jitter in [0.5, 1.5) of 0.5, 1.0, 2.0.
        for delay, base in zip(delays, (0.5, 1.0, 2.0)):
            assert base * 0.5 <= delay < base * 1.5
        # Jitter is seeded from the job key: a second client run backs
        # off identically (reproducible load patterns).
        rerun: list[float] = []
        with pytest.raises(ServiceUnavailableError):
            client.submit(tiny_request(), retries=3, sleep=rerun.append)
        assert rerun == delays

    def test_overload_raises_delay_to_the_hint(self, monkeypatch):
        client = ServiceClient("/nonexistent.sock")
        outcomes = [ServiceOverloadedError("busy", 7.5), ("status", "response")]

        def fake_submit_once(request, wait, stream, on_event):
            result = outcomes.pop(0)
            if isinstance(result, Exception):
                raise result
            return result

        monkeypatch.setattr(client, "_submit_once", fake_submit_once)
        delays: list[float] = []
        status, response = client.submit(
            tiny_request(), retries=1, sleep=delays.append
        )
        assert (status, response) == ("status", "response")
        assert len(delays) == 1
        assert 7.5 * 0.5 <= delays[0] < 7.5 * 1.5  # hint, not 0.5s base

    def test_interrupted_is_retryable(self, monkeypatch):
        client = ServiceClient("/nonexistent.sock")
        outcomes = [
            ServiceInterruptedError("daemon died mid-job"),
            ("status", "response"),
        ]

        def fake_submit_once(request, wait, stream, on_event):
            result = outcomes.pop(0)
            if isinstance(result, Exception):
                raise result
            return result

        monkeypatch.setattr(client, "_submit_once", fake_submit_once)
        status, response = client.submit(
            tiny_request(), retries=2, sleep=lambda _: None
        )
        assert (status, response) == ("status", "response")

    def test_zero_retries_raises_immediately(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nothing.sock"), timeout=1)
        delays: list[float] = []
        with pytest.raises(ServiceUnavailableError):
            client.submit(tiny_request(), sleep=delays.append)
        assert delays == []


class TestDroppedEvents:
    """Slow streaming consumers lose events — visibly, never silently."""

    def test_slow_consumer_drops_are_counted_on_the_status_row(self):
        from repro.obs.events import JobStarted
        from repro.service.queue import JobQueue

        async def scenario() -> int:
            loop = asyncio.get_running_loop()
            broadcast = _Broadcast()
            bridge = AsyncEventBridge(loop, maxsize=4)
            broadcast.attach(bridge)
            for i in range(32):  # nobody drains: the queue fills at 4
                broadcast.on_event(
                    JobStarted(job_id="job-1-aaaaaaaa", tenant="t", running=1)
                )
            await asyncio.sleep(0)  # let call_soon_threadsafe callbacks run
            broadcast.close()
            await asyncio.sleep(0)
            return broadcast.dropped_total()

        dropped = asyncio.run(scenario())
        assert dropped >= 32 - 4 - 1  # sentinel may sacrifice one more

        queue = JobQueue()
        job, _ = queue.submit(tiny_request())
        job.dropped_events = dropped
        status = job.status()
        assert status.dropped_events == dropped
        # The additive field round-trips, and old payloads parse as 0.
        assert type(status).from_json(status.to_json()) == status
        legacy = json.loads(status.to_json())
        del legacy["dropped_events"]
        assert type(status).from_dict(legacy).dropped_events == 0
