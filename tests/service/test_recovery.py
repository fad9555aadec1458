"""Crash-recovery tests: engine resume, daemon recovery, backpressure.

The recovery model under test (``docs/service.md``, "Operations"):

1. a recovered job runs its request again from the start; the search is
   deterministic and every pre-crash evaluation is in the persistent
   eval cache, so the replay is bit-identical to an uninterrupted run
   and reaches the crash point on cache hits;
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
from repro.core.backend import ProcessPoolBackend, open_eval_store
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
from repro.service.journal import JobJournal
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


class CrashAfterRounds:
    """Crash driver: ``cancel()`` fires once ``rounds`` search rounds closed.

    The engines emit one ``generation_completed`` event per GP generation
    and per synth template round, so counting them puts a crash at any
    search boundary, in either leg of a race.  A cooperative cancel at a
    round boundary leaves what a kill between rounds leaves: every
    evaluation scored so far is in the persistent cache.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds
        #: ``generation_completed`` events seen so far.
        self.seen = 0
        #: The engine whose round the crash followed: a synth trial emits
        #: ``synth_template_enumerated``, a GP trial never does.
        self.leg = ""
        self._synth_trial = False

    def on_event(self, event):
        if event.type == "trial_started":
            self._synth_trial = False
        elif event.type == "synth_template_enumerated":
            self._synth_trial = True
        elif event.type == "generation_completed":
            self.seen += 1
            if self.seen == self.rounds:
                self.leg = "synth" if self._synth_trial else "cirfix"

    def cancel(self) -> bool:
        return self.seen >= self.rounds


def event_fingerprint(events):
    """Event dicts minus wall-clock fields — the determinism fingerprint."""
    out = []
    for event in events:
        data = event.to_dict()
        for field in WALL_TIME_FIELDS:
            data.pop(field, None)
        out.append(data)
    return out


class JoinGate:
    """Daemon observer that opens once a submission joins a live job.

    :meth:`hold` wraps ``RepairDaemon._run_job`` so that a job waits on
    its job thread until the gate opens.  Only the wait blocks; the
    observer itself runs on the event-loop thread and just sets the gate.
    """

    def __init__(self, timeout: float = 120.0):
        self.joined = threading.Event()
        self.timeout = timeout

    def on_event(self, event):
        if event.type == "job_admitted" and event.joined:
            self.joined.set()

    def hold(self, daemon: RepairDaemon) -> None:
        run_job = daemon._run_job

        def held(job, runtime):
            self.joined.wait(self.timeout)
            return run_job(job, runtime)

        daemon._run_job = held


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
    """A crash at any search boundary, replayed from the start on the warm
    cache, ends bit-identical to a run that never crashed."""

    # counter_reset under TINY runs four GP rounds; a crash after the
    # last one would cut nothing.
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_resume_is_bit_identical_and_warm(self, tmp_path, monkeypatch, backend):
        self.crash_and_resume(tmp_path, monkeypatch, backend, (1, 2, 3), "cirfix")

    # On counter_reset under TINY the synth leg fails after five template
    # rounds, and the race escalates to four GP rounds.  On the pool, the
    # cancelled job parks its workers and the resumed job borrows them.
    @pytest.mark.parametrize(
        "backend, rounds, leg",
        [
            ("serial", (1, 2, 3, 4, 5), "synth"),
            ("serial", (6, 7, 8), "cirfix"),
            ("process", (1, 2, 3, 4, 5), "synth"),
            ("process", (6, 7, 8), "cirfix"),
        ],
        ids=["synth-leg", "gp-leg", "synth-leg-process", "gp-leg-process"],
    )
    def test_race_resumes_in_either_leg(self, tmp_path, monkeypatch, backend, rounds, leg):
        self.crash_and_resume(tmp_path, monkeypatch, backend, rounds, leg, engine="race")

    def crash_and_resume(self, tmp_path, monkeypatch, backend, rounds, leg, **request):
        """Crash a job after each of ``rounds`` search rounds, all in
        engine ``leg``, resume it, and check it against an uncrashed run.
        A resumed pool job forks no worker: it borrows the ones the
        crashed job parked."""
        forks = []
        spawn = ProcessPoolBackend._spawn
        monkeypatch.setattr(
            ProcessPoolBackend, "_spawn", lambda pool: forks.append(pool) or spawn(pool)
        )
        # Uninterrupted baseline (own cache so it stays cold).
        baseline_obs = RecordingObserver()
        baseline = run_request(
            tiny_request(str(tmp_path / "cache-b"), backend, **request),
            observers=[baseline_obs],
        )
        for crash_after in rounds:
            crashed_req = tiny_request(
                str(tmp_path / f"cache-{crash_after}"), backend, **request
            )
            driver = CrashAfterRounds(crash_after)
            crash_store = open_eval_store(crashed_req.resolved_config())
            run_request(crashed_req, observers=[driver], cancel=driver.cancel)
            # The run stopped at the intended boundary, in the intended leg.
            assert (driver.seen, driver.leg) == (crash_after, leg)
            # Every pre-crash store miss wrote an entry the replay can hit.
            pre_crash_misses = crash_store.misses
            assert pre_crash_misses > 0

            # Resume: same cache, full budget, replayed from the start.
            PersistentEvalCache.reset_shared()  # simulate a fresh process
            resume_obs = RecordingObserver()
            store = open_eval_store(crashed_req.resolved_config())
            hits_before = store.hits
            forks.clear()
            resumed = run_request(crashed_req, observers=[resume_obs])
            assert forks == [], crash_after

            # Outcome parity with the never-crashed run (modulo wall clock).
            reports = []
            for outcome in (baseline, resumed):
                data = json.loads(outcome_to_json(outcome, "counter_reset"))
                data.pop("elapsed_seconds")
                reports.append(data)
            assert reports[0] == reports[1], crash_after
            assert resumed.eval_sims == baseline.eval_sims, crash_after
            # Event-stream parity.
            assert event_fingerprint(resume_obs.events) == event_fingerprint(
                baseline_obs.events
            ), crash_after
            # Recovery ran warm: every pre-crash evaluation was a disk hit.
            assert store.hits - hits_before >= pre_crash_misses, crash_after


class TestDaemonRecovery:
    """``recover=True`` re-admits unfinished journaled jobs on startup."""

    def test_recovered_job_completes_and_clients_reattach(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        request = tiny_request(cache_dir)
        job_id = f"job-1-{request.job_key()[:8]}"
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)

        # Fabricate the instant a kill -9 landed: the job was journaled
        # admitted + started and had scored two generations into the
        # cache (a genuine cancelled partial run).
        driver = CrashAfterRounds(2)
        run_request(request, observers=[driver], cancel=driver.cancel)
        journal.record_admitted(job_id, request.to_dict())
        journal.record_started(job_id)
        assert [r.job_id for r in journal.unfinished()] == [job_id]

        PersistentEvalCache.reset_shared()  # new daemon process
        lifecycle = RecordingObserver()
        # The recovered job waits on its job thread until our resubmission
        # has joined it, so the join never races the job's completion.
        gate = JoinGate()
        harness = DaemonHarness(
            tmp_path,
            "d",
            base_config=RepairConfig(),
            journal_dir=journal_dir,
            recover=True,
            observers=[lifecycle, gate],
        )
        gate.hold(harness.daemon)
        with harness as client:
            # The client re-attaches by resubmitting: dedup joins the
            # recovered in-flight job instead of duplicating it.
            status, response = client.submit(request)
        assert gate.joined.is_set()
        assert status.job_id == job_id
        assert status.submissions >= 2  # recovery + our resubmission
        assert response.status == "done"

        recovered = [e for e in lifecycle.events if e.type == "job_recovered"]
        assert len(recovered) == 1
        assert recovered[0].job_id == job_id
        assert recovered[0].attempts == 2
        # The replay ran warm on the pre-crash evaluations.
        assert response.cache["store_hits"] > 0

        # Outcome parity with a direct run of the same request.
        direct = run_request(request)
        want = json.loads(outcome_to_json(direct, "counter_reset"))
        got = json.loads(response.outcome_json)
        for data in (want, got):
            data.pop("elapsed_seconds")
        assert got == want

        # Terminal record journaled; nothing left.
        assert journal.get(job_id).state == "done"
        assert journal.unfinished() == []

    def test_recover_without_a_journal_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="--journal-dir"):
            RepairDaemon(str(tmp_path / "d.sock"), recover=True)

    def test_poison_and_garbage_records_fail_instead_of_looping(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)
        request = tiny_request()
        journal.record_admitted(
            "job-1-aaaaaaaa", request.to_dict(), attempts=4
        )  # crossed MAX_RECOVERY_ATTEMPTS
        journal.record_admitted("job-2-bbbbbbbb", {"schema_version": 99})
        # A request journaled before the lint gate was removed.
        gated = tiny_request(tenant="gated").to_dict()
        gated["config"]["lint_gate"] = True
        journal.record_admitted("job-3-cccccccc", gated)
        # One journaled before the result table lost its size bound.
        bounded = tiny_request(tenant="bounded").to_dict()
        bounded["config"]["eval_cache_size"] = 256
        journal.record_admitted("job-4-dddddddd", bounded)
        with DaemonHarness(
            tmp_path, "d", journal_dir=journal_dir, recover=True
        ) as client:
            assert client.jobs() == []  # no job was re-admitted
        poisoned = journal.get("job-1-aaaaaaaa")
        assert poisoned.state == "failed"
        assert "poison" in poisoned.error
        garbage = journal.get("job-2-bbbbbbbb")
        assert garbage.state == "failed"
        assert "unrecoverable" in garbage.error
        removed_key = journal.get("job-3-cccccccc")
        assert removed_key.state == "failed"
        assert "unrecoverable" in removed_key.error
        assert "unknown config key 'lint_gate'" in removed_key.error
        unbounded = journal.get("job-4-dddddddd")
        assert unbounded.state == "failed"
        assert "unknown config key 'eval_cache_size'" in unbounded.error

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
