"""End-to-end daemon tests: parity, warm cache, join, cancel, restart."""

import asyncio
import json
import threading
import time

import pytest

from repro.api import run_request
from repro.cache import PersistentEvalCache
from repro.core.config import RepairConfig
from repro.core.serialize import outcome_to_json
from repro.service import RepairDaemon, RepairRequest, ServiceClient

#: Tiny search: ~23 unique evaluations on counter_reset, a few seconds.
TINY = {"population_size": 8, "max_generations": 3}


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
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "daemon failed to drain"


@pytest.fixture(autouse=True)
def _fresh_store_registry():
    PersistentEvalCache.reset_shared()
    yield
    PersistentEvalCache.reset_shared()


def tiny_request(**kwargs) -> RepairRequest:
    return RepairRequest(scenario="counter_reset", config=dict(TINY), seeds=(0,), **kwargs)


class TestParityAndWarmCache:
    def test_submit_matches_direct_run_and_resubmit_hits(self, tmp_path):
        base = RepairConfig(cache_dir=str(tmp_path / "cache"))
        request = tiny_request()
        with DaemonHarness(tmp_path, "d", base_config=base) as client:
            _, first = client.submit(request)
            _, second = client.submit(request)
        assert first.status == "done"
        assert second.status == "done"
        # Cold job misses the persistent store; warm job must hit >= 90%.
        assert first.cache["store_hits"] == 0
        assert first.cache["store_misses"] > 0
        assert second.cache["hit_rate"] >= 0.9
        # The service outcome is bit-identical to a direct in-process run
        # of the same request (modulo wall clock).
        direct = run_request(request, base_config=base)
        reports = []
        for text in (
            first.outcome_json,
            second.outcome_json,
            outcome_to_json(direct, "counter_reset"),
        ):
            data = json.loads(text)
            data.pop("elapsed_seconds")
            reports.append(data)
        assert reports[0] == reports[2]
        assert reports[1] == reports[2]

    def test_streaming_delivers_lifecycle_and_engine_events(self, tmp_path):
        with DaemonHarness(tmp_path, "d") as client:
            events = []
            _, response = client.submit(
                tiny_request(), stream=True, on_event=events.append
            )
        assert response.status == "done"
        types = [event.type for event in events]
        assert "job_started" in types
        assert "candidate_evaluated" in types
        assert types[-1] == "job_completed"
        completed = events[-1]
        assert completed.status == "done"
        assert completed.cache_hit_rate == response.cache["hit_rate"]


class TestJoin:
    def test_duplicate_inflight_submission_joins(self, tmp_path):
        # Enough seeds that the job is still in flight when we resubmit.
        slow = RepairRequest(
            scenario="counter_reset", config=dict(TINY), seeds=tuple(range(8))
        )
        with DaemonHarness(tmp_path, "d") as client:
            results = {}

            def waiter():
                results["first"] = client.submit(slow)

            thread = threading.Thread(target=waiter)
            thread.start()
            deadline = time.monotonic() + 30
            while not any(
                row.state in ("queued", "running") for row in client.jobs()
            ):
                assert time.monotonic() < deadline, "job never admitted"
                time.sleep(0.02)
            status, _ = client.submit(slow, wait=False)
            assert status.submissions == 2  # joined, not re-enqueued
            # Joining must not spawn a second job.
            assert len(client.jobs()) == 1
            client.cancel(status.job_id)
            thread.join(timeout=120)
            assert not thread.is_alive()
        first_status, first_response = results["first"]
        assert first_status.job_id == status.job_id
        assert first_response.status in ("done", "cancelled")


class TestCancel:
    def test_cancel_running_job_leaves_daemon_reusable(self, tmp_path):
        slow = RepairRequest(
            scenario="counter_reset", config=dict(TINY), seeds=tuple(range(16))
        )
        with DaemonHarness(tmp_path, "d") as client:
            results = {}

            def waiter():
                results["slow"] = client.submit(slow)

            thread = threading.Thread(target=waiter)
            thread.start()
            deadline = time.monotonic() + 30
            while not any(row.state == "running" for row in client.jobs()):
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            job_id = client.jobs()[0].job_id
            client.cancel(job_id)
            thread.join(timeout=120)
            assert not thread.is_alive(), "cancelled job never returned"
            _, cancelled = results["slow"]
            assert cancelled.status == "cancelled"
            # The daemon (and its execution pool) must still take work.
            _, after = client.submit(tiny_request())
            assert after.status == "done"

    def test_cancel_queued_job_never_runs(self, tmp_path):
        slow = RepairRequest(
            scenario="counter_reset", config=dict(TINY), seeds=tuple(range(16))
        )
        queued = tiny_request(tenant="other")
        with DaemonHarness(tmp_path, "d", max_jobs=1) as client:
            background = threading.Thread(
                target=lambda: client.submit(slow), daemon=True
            )
            background.start()
            deadline = time.monotonic() + 30
            while not any(row.state == "running" for row in client.jobs()):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            status, _ = client.submit(queued, wait=False)
            assert status.state == "queued"
            cancelled = client.cancel(status.job_id)
            assert cancelled.state == "cancelled"
            running = [row for row in client.jobs() if row.state == "running"]
            client.cancel(running[0].job_id)
            background.join(timeout=120)


class TestCrashRestart:
    def test_persistent_cache_survives_restart_with_correct_telemetry(
        self, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        base = RepairConfig(cache_dir=cache_dir)
        request = tiny_request()
        with DaemonHarness(tmp_path, "first", base_config=base) as client:
            _, cold = client.submit(request)
        assert cold.status == "done"
        assert cold.cache["store_misses"] > 0
        # Simulate a process crash/restart: the in-memory store registry
        # dies with the process; only the directory survives.
        PersistentEvalCache.reset_shared()
        with DaemonHarness(tmp_path, "second", base_config=base) as client:
            events = []
            _, warm = client.submit(request, stream=True, on_event=events.append)
        assert warm.status == "done"
        assert warm.cache["hit_rate"] >= 0.9
        assert warm.cache["store_hits"] == cold.cache["store_misses"]
        # Replayed hits must carry the same telemetry the cold run had:
        # the replayed outcome report is bit-identical.
        cold_report = json.loads(cold.outcome_json)
        warm_report = json.loads(warm.outcome_json)
        cold_report.pop("elapsed_seconds")
        warm_report.pop("elapsed_seconds")
        assert warm_report == cold_report
        # And the job-completed event agrees with the response counters.
        completed = [e for e in events if e.type == "job_completed"]
        assert completed and completed[-1].cache_hit_rate >= 0.9


class TestJobIsolation:
    def test_unserializable_outcome_fails_the_job_not_the_daemon(
        self, tmp_path, monkeypatch
    ):
        """A job whose outcome cannot be serialized ends ``failed`` and
        frees its execution slot."""
        import repro.service.daemon as daemon_mod
        from repro.core.serialize import SerializeError

        calls = []

        def fail_once(outcome, scenario_id=""):
            calls.append(scenario_id)
            if len(calls) == 1:
                raise SerializeError("payload is not serializable")
            return outcome_to_json(outcome, scenario_id)

        monkeypatch.setattr(daemon_mod, "outcome_to_json", fail_once)
        with DaemonHarness(tmp_path, "d", max_jobs=1) as client:
            # A wedged job must fail this test, not hang it.
            client.timeout = 60
            _, failed = client.submit(tiny_request())
            assert failed.status == "failed"
            assert "SerializeError" in failed.error
            # The single execution slot was released: the next job runs.
            _, after = client.submit(tiny_request())
            assert after.status == "done"
            assert [row.state for row in client.jobs()] == ["failed", "done"]


class TestProtocolErrors:
    def test_bad_request_fails_connection_not_daemon(self, tmp_path):
        from repro.service import ServiceError

        with DaemonHarness(tmp_path, "d") as client:
            with pytest.raises(ServiceError):
                client.submit(RepairRequest())  # no problem source
            with pytest.raises(ServiceError):
                client.submit(
                    RepairRequest(scenario="s", config={"bogus_knob": 1})
                )
            with pytest.raises(ServiceError):
                client.cancel("job-404")
            # Still alive and serving after three bad requests.
            assert client.ping()["ok"]

    def test_unknown_engine_rejected_with_typed_error(self, tmp_path):
        from repro.core.engines import engine_names
        from repro.service import ServiceError

        request = tiny_request(engine="bogus")
        with DaemonHarness(tmp_path, "d") as client:
            # The raw protocol reply is typed: a machine-readable code
            # plus the registered engine list, not just prose.
            reply = next(
                iter(
                    client._call(
                        {"op": "submit", "request": request.to_dict(), "wait": False}
                    )
                )
            )
            assert reply["ok"] is False
            assert reply["code"] == "unknown_engine"
            assert reply["known_engines"] == list(engine_names())
            assert "bogus" in reply["error"]
            # Rejected at admission: no job was enqueued.
            assert client.jobs() == []
            # The high-level client surfaces it as a ServiceError naming
            # the valid engines, and the daemon keeps serving.
            with pytest.raises(ServiceError, match="cirfix"):
                client.submit(request)
            assert client.ping()["ok"]
