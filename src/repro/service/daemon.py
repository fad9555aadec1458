"""The repair-as-a-service daemon (``repro serve``).

An asyncio Unix-domain-socket server that admits typed
:class:`~repro.service.jobs.RepairRequest` jobs, deduplicates identical
in-flight work, schedules fairly across tenants
(:class:`~repro.service.queue.JobQueue`), executes repairs on a thread
pool (each run uses the engine's own evaluation backend, including the
supervised process pool and the persistent eval cache configured via
``cache_dir``), and streams :mod:`repro.obs` telemetry to clients.

Wire protocol (version :data:`PROTOCOL_VERSION`) — newline-delimited
JSON, one operation per connection:

- ``{"op": "ping"}`` → ``{"ok": true, "pong": true, "protocol": 1}``
- ``{"op": "submit", "request": {...}, "wait": true, "stream": false}``
  → an admission line ``{"ok": true, "job": {...}, "joined": bool}``;
  with ``stream`` also ``{"event": {...}}`` lines as the run emits
  telemetry; with ``wait`` or ``stream`` a terminal
  ``{"response": {...}}`` line (a :class:`~repro.service.jobs.RepairResponse`).
- ``{"op": "jobs"}`` → ``{"ok": true, "jobs": [...]}`` (status rows)
- ``{"op": "cancel", "job_id": "..."}`` → ``{"ok": true, "job": {...}}``
- ``{"op": "shutdown"}`` → ``{"ok": true, "stopping": true}``; the
  daemon cancels queued jobs, flags running ones, drains, and exits.

Every error is ``{"ok": false, "error": "..."}``; malformed requests
fail the connection, never the daemon.  Typed errors additionally carry
a ``code`` plus machine-readable context — a submit naming an
unregistered engine is rejected at admission with
``{"ok": false, "error": "...", "code": "unknown_engine",
"known_engines": [...]}``, and a submit shed by admission control gets
``{"ok": false, "code": "overloaded", "retry_after_hint": seconds}`` —
so clients can self-correct without parsing prose.

Crash safety (``docs/service.md``, "Operations"): with ``journal_dir``
set every admission/start/completion is write-ahead logged
(:mod:`repro.service.journal`); ``recover=True`` replays the journal on
startup and re-admits unfinished jobs, which run again from the start
and, being deterministic, replay warm out of the persistent eval cache.
SIGTERM/SIGINT trigger the same drain path as the ``shutdown`` op.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from ..core.backend import open_eval_store
from ..core.config import RepairConfig
from ..core.engines import engine_names
from ..core.serialize import outcome_to_json
from ..obs.bridge import AsyncEventBridge
from ..obs.events import (
    JobAdmitted,
    JobCompleted,
    JobRecovered,
    JobShed,
    JobStarted,
    RepairEvent,
)
from ..obs.observer import ObserverSet, RepairObserver
from .jobs import RepairRequest, RepairResponse
from .journal import JobJournal
from .queue import Job, JobQueue

#: Version of the NDJSON socket protocol (echoed by ``ping``).
PROTOCOL_VERSION = 1

#: Hard cap on one request line (a full custom-design request carries
#: Verilog texts inline; 16 MiB is far above any benchmark's size).
MAX_LINE_BYTES = 16 << 20

#: Recovery re-admissions one job may consume before it is failed as a
#: poison job — a request that reliably crashes the daemon must not
#: crash-loop it forever.
MAX_RECOVERY_ATTEMPTS = 3


class _Broadcast:
    """Fan one run's observer stream out to dynamically attached bridges.

    The engine calls :meth:`on_event` from the job's worker thread; the
    daemon attaches/detaches :class:`AsyncEventBridge` consumers from
    the event loop thread as streaming clients come and go — hence the
    lock.  After :meth:`close`, attaching finishes the bridge
    immediately (the job is over; there is nothing left to stream).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bridges: list[AsyncEventBridge] = []
        #: Every bridge ever attached (for the dropped-events tally).
        self._all: list[AsyncEventBridge] = []
        self._closed = False

    def on_event(self, event: RepairEvent) -> None:
        """Observer hook: replicate one event to every attached bridge."""
        with self._lock:
            bridges = list(self._bridges)
        for bridge in bridges:
            bridge.on_event(event)

    def attach(self, bridge: AsyncEventBridge) -> None:
        """Start streaming to ``bridge`` (finishes it at once if closed)."""
        with self._lock:
            self._all.append(bridge)
            if self._closed:
                closed = True
            else:
                closed = False
                self._bridges.append(bridge)
        if closed:
            bridge.finish()

    def dropped_total(self) -> int:
        """Events lost across every bridge this job ever streamed to."""
        with self._lock:
            return sum(bridge.dropped for bridge in self._all)

    def close(self) -> None:
        """Terminate every attached bridge; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            bridges, self._bridges = self._bridges, []
        for bridge in bridges:
            bridge.finish()


class _JobRuntime:
    """Daemon-side execution state for one admitted job."""

    def __init__(self, config: RepairConfig) -> None:
        #: The request's fully resolved config (overrides applied).
        self.config = config
        #: The persistent eval store this job will hit (None = no disk tier).
        self.store = open_eval_store(config)
        #: Fan-out point for the run's telemetry events.
        self.broadcast = _Broadcast()
        #: Set (loop-side) when the terminal response is available.
        self.done = asyncio.Event()
        #: The terminal :class:`RepairResponse` once ``done`` is set.
        self.response: RepairResponse | None = None


class RepairDaemon:
    """The asyncio job daemon behind ``repro serve``.

    Args:
        socket_path: Unix socket to listen on (created, replaced if a
            stale file exists, and unlinked on exit).
        base_config: Server-side :class:`RepairConfig` every request's
            overrides are applied on top of.  Point ``cache_dir`` at a
            directory to give all jobs a shared persistent eval cache.
        max_jobs: Repairs executing concurrently (thread-pool width).
        tenant_quota: Max concurrently running jobs per tenant.
        observers: Optional :mod:`repro.obs` observers receiving the
            *job lifecycle* events (admitted/started/completed, plus
            recovered/shed) — called on the event loop thread only.
            Engine telemetry goes to streaming clients, not here.
        journal_dir: Directory for the durable job journal
            (:class:`~repro.service.journal.JobJournal`).  None (the
            default) keeps the daemon fully in-memory, as before.
        recover: Replay the journal on startup and re-admit every job
            that never reached a terminal state.  Needs ``journal_dir``;
            without one the constructor raises ``ValueError``.
        max_queue_depth: Admission backpressure — reject new (non-join)
            submissions with a typed ``overloaded`` error once this many
            jobs are queued.  0 (the default) disables shedding.
    """

    def __init__(
        self,
        socket_path: "str | os.PathLike[str]",
        base_config: RepairConfig | None = None,
        max_jobs: int = 2,
        tenant_quota: int = 2,
        observers: Sequence[RepairObserver] | None = None,
        journal_dir: "str | os.PathLike[str] | None" = None,
        recover: bool = False,
        max_queue_depth: int = 0,
    ) -> None:
        if recover and not journal_dir:
            raise ValueError(
                "--recover requires --journal-dir: there is no journal to replay"
            )
        self.socket_path = os.fspath(socket_path)
        self.base_config = base_config or RepairConfig()
        self.max_jobs = max(1, int(max_jobs))
        self.queue = JobQueue(tenant_quota=tenant_quota)
        self.journal = JobJournal(journal_dir) if journal_dir else None
        self.recover = bool(recover)
        self.max_queue_depth = max(0, int(max_queue_depth))
        self._observers = ObserverSet(observers)
        self._runtimes: dict[str, _JobRuntime] = {}
        self._tasks: set[asyncio.Task] = set()
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop = asyncio.Event()
        self._stopping = False
        #: EWMA of completed-job wall seconds (the retry_after_hint base).
        self._avg_job_seconds = 0.0

    async def serve(self, ready: "asyncio.Event | None" = None) -> None:
        """Run the daemon until a ``shutdown`` op (or :meth:`stop`).

        ``ready`` (optional) is set once the socket is listening —
        handy for tests and for the CLI's "serving on …" message.

        SIGTERM and SIGINT trigger :meth:`stop` — the same graceful
        drain as the ``shutdown`` op — when the loop runs on the main
        thread (signal handlers are silently skipped elsewhere, e.g. in
        tests running the daemon on a background thread).
        """
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_jobs, thread_name_prefix="repro-job"
        )
        handled_signals: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                self._loop.add_signal_handler(sig, self.stop)
                handled_signals.append(sig)
        if self.recover:
            self._recover_jobs()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        server = await asyncio.start_unix_server(
            self._handle, path=self.socket_path, limit=MAX_LINE_BYTES
        )
        try:
            if ready is not None:
                ready.set()
            self._pump()  # start any recovered jobs
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain()
            self._pool.shutdown(wait=True)
            self._observers.close()
            for sig in handled_signals:
                with contextlib.suppress(Exception):
                    self._loop.remove_signal_handler(sig)
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)

    def stop(self) -> None:
        """Request shutdown (idempotent; usable from the loop thread)."""
        self._stopping = True
        self._stop.set()

    async def _drain(self) -> None:
        """Cancel queued jobs, flag running ones, await their tasks.

        A graceful drain leaves no unfinished journal records: queued
        jobs are journaled ``cancelled`` here, running ones finish
        (as ``cancelled``) through :meth:`_execute` while we await their
        tasks.  Only a hard kill leaves records for ``--recover``.
        """
        for status in self.queue.statuses():
            if status.state == "queued":
                self.queue.cancel(status.job_id)
                if self.journal is not None:
                    self.journal.record_completed(
                        status.job_id, "cancelled", "daemon shutting down"
                    )
                runtime = self._runtimes.get(status.job_id)
                if runtime is not None and not runtime.done.is_set():
                    runtime.response = RepairResponse(
                        job_id=status.job_id,
                        status="cancelled",
                        error="daemon shutting down",
                    )
                    runtime.done.set()
                    runtime.broadcast.close()
            elif status.state == "running":
                self.queue.cancel(status.job_id)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    # ------------------------------------------------------------------
    # Crash recovery (docs/service.md, "Operations")

    def _new_runtime(self, job: Job, config: RepairConfig) -> _JobRuntime:
        """Create (and register) the runtime for one admitted job."""
        runtime = _JobRuntime(config)
        self._runtimes[job.job_id] = runtime
        return runtime

    def _recover_jobs(self) -> None:
        """Re-admit every unfinished journaled job (startup, pre-listen).

        Recovered jobs keep their journaled ids (clients re-attach by
        resubmitting the identical request, which joins via the dedup
        key), are re-journaled with a bumped attempt count, and run again
        from the start.  The search is deterministic, so the persistent
        eval cache turns every pre-crash evaluation into a warm hit:
        reaching the crash point again costs cache lookups, not
        simulations.
        """
        assert self.journal is not None
        records = self.journal.unfinished()
        if not records:
            return
        self.queue.advance_ids(self.journal.max_ordinal())
        for record in records:
            if record.attempts > MAX_RECOVERY_ATTEMPTS:
                self.journal.record_completed(
                    record.job_id,
                    "failed",
                    f"poison job: recovered {record.attempts - 1} times "
                    "without completing",
                )
                continue
            try:
                request = RepairRequest.from_dict(record.request)
                request.validate()
                config = request.resolved_config(self.base_config)
            except (ValueError, TypeError, KeyError) as exc:
                self.journal.record_completed(
                    record.job_id, "failed",
                    f"unrecoverable journaled request: {exc}",
                )
                continue
            job, joined = self.queue.submit(request, job_id=record.job_id)
            if joined:  # duplicate record (should not happen); tolerate
                continue
            job.recovered = True
            runtime = self._new_runtime(job, config)
            self.journal.record_admitted(
                job.job_id, request.to_dict(), attempts=record.attempts + 1
            )
            self._emit(
                runtime,
                JobRecovered(
                    job_id=job.job_id,
                    tenant=request.tenant,
                    scenario=request.scenario or "<custom>",
                    attempts=record.attempts + 1,
                ),
            )

    def _retry_after_hint(self) -> float:
        """Seconds a shed client should wait before resubmitting.

        A smoothed estimate of one execution slot freeing up: the EWMA
        of completed-job wall time divided across the slots, floored at
        one second (before any job completes there is no signal — the
        floor is the hint).
        """
        if self._avg_job_seconds <= 0.0:
            return 1.0
        return round(max(1.0, self._avg_job_seconds / self.max_jobs), 3)

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (one operation, then close)."""
        try:
            line = await reader.readline()
            if not line.strip():
                return
            try:
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise ValueError("request must be a JSON object")
                op = message.get("op")
                if op == "ping":
                    await self._send(
                        writer, {"ok": True, "pong": True, "protocol": PROTOCOL_VERSION}
                    )
                elif op == "jobs":
                    self._refresh_dropped()
                    rows = [status.to_dict() for status in self.queue.statuses()]
                    await self._send(writer, {"ok": True, "jobs": rows})
                elif op == "cancel":
                    await self._op_cancel(writer, message)
                elif op == "submit":
                    await self._op_submit(writer, message)
                elif op == "shutdown":
                    await self._send(writer, {"ok": True, "stopping": True})
                    self.stop()
                else:
                    raise ValueError(f"unknown op {op!r}")
            except (ValueError, TypeError, KeyError) as exc:
                await self._send(writer, {"ok": False, "error": str(exc)})
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        """Write one NDJSON line and flush it."""
        writer.write(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        await writer.drain()

    async def _op_cancel(
        self, writer: asyncio.StreamWriter, message: dict[str, Any]
    ) -> None:
        """Handle a ``cancel`` op."""
        job_id = message.get("job_id", "")
        job = self.queue.cancel(job_id)
        if job is None:
            await self._send(writer, {"ok": False, "error": f"unknown job {job_id!r}"})
            return
        runtime = self._runtimes.get(job.job_id)
        if job.state == "cancelled" and runtime is not None and not runtime.done.is_set():
            # Was still queued: it will never run, so finalize it here.
            if self.journal is not None:
                self.journal.record_completed(job.job_id, "cancelled", job.error)
            runtime.response = RepairResponse(
                job_id=job.job_id, status="cancelled", error=job.error
            )
            runtime.done.set()
            runtime.broadcast.close()
        await self._send(writer, {"ok": True, "job": job.status().to_dict()})

    async def _op_submit(
        self, writer: asyncio.StreamWriter, message: dict[str, Any]
    ) -> None:
        """Handle a ``submit`` op (admission, optional stream, response)."""
        if self._stopping:
            raise ValueError("daemon is shutting down")
        request = RepairRequest.from_dict(message.get("request") or {})
        if request.engine not in engine_names():
            # Typed protocol error at admission: clients get the valid
            # engine list without having to parse the message text.
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": (
                        f"unknown repair engine {request.engine!r} "
                        f"(registered: {', '.join(engine_names())})"
                    ),
                    "code": "unknown_engine",
                    "known_engines": list(engine_names()),
                },
            )
            return
        request.validate()
        config = request.resolved_config(self.base_config)
        if (
            self.max_queue_depth
            and self.queue.peek_live(request.job_key()) is None
            and self.queue.queued_depth() >= self.max_queue_depth
        ):
            # Admission backpressure: shed new work (joins are exempt —
            # attaching to in-flight work adds no queue depth).
            depth = self.queue.queued_depth()
            hint = self._retry_after_hint()
            if self._observers:
                self._observers.emit(
                    JobShed(
                        tenant=request.tenant,
                        scenario=request.scenario or "<custom>",
                        queue_depth=depth,
                        retry_after_hint=hint,
                    )
                )
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": (
                        f"daemon overloaded: {depth} jobs queued "
                        f"(cap {self.max_queue_depth}); retry later"
                    ),
                    "code": "overloaded",
                    "retry_after_hint": hint,
                },
            )
            return
        job, joined = self.queue.submit(request)
        runtime = self._runtimes.get(job.job_id)
        if runtime is None:
            runtime = self._new_runtime(job, config)
        if self.journal is not None and not joined:
            self.journal.record_admitted(job.job_id, request.to_dict())
        self._emit(
            runtime,
            JobAdmitted(
                job_id=job.job_id,
                tenant=request.tenant,
                scenario=request.scenario or "<custom>",
                joined=joined,
                queue_depth=self.queue.queued_depth(),
            ),
        )
        stream = bool(message.get("stream", False))
        wait = bool(message.get("wait", True)) or stream
        bridge: AsyncEventBridge | None = None
        if stream:
            # Attach before replying so no event can slip past us.
            bridge = AsyncEventBridge(asyncio.get_running_loop())
            runtime.broadcast.attach(bridge)
            if runtime.done.is_set():
                bridge.finish()
        await self._send(
            writer, {"ok": True, "job": job.status().to_dict(), "joined": joined}
        )
        self._pump()
        if not wait:
            return
        if bridge is not None:
            async for event in bridge:
                await self._send(writer, {"event": event.to_dict()})
        await runtime.done.wait()
        assert runtime.response is not None
        await self._send(writer, {"response": runtime.response.to_dict()})

    # ------------------------------------------------------------------
    # Scheduling and execution

    def _pump(self) -> None:
        """Start ready jobs while execution slots are free (loop thread)."""
        if self._stopping:
            return
        while self.queue.running_count() < self.max_jobs:
            job = self.queue.next_ready()
            if job is None:
                return
            self.queue.mark_running(job)
            task = asyncio.ensure_future(self._execute(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _execute(self, job: Job) -> None:
        """Run one job on the thread pool and finalize it."""
        runtime = self._runtimes[job.job_id]
        self._emit(
            runtime,
            JobStarted(
                job_id=job.job_id,
                tenant=job.request.tenant,
                running=self.queue.running_count(),
            ),
        )
        if self.journal is not None:
            self.journal.record_started(job.job_id)
        assert self._loop is not None and self._pool is not None
        status, response, elapsed = await self._loop.run_in_executor(
            self._pool, self._run_job, job, runtime
        )
        self.queue.mark_finished(job, status, response.error)
        if self.journal is not None:
            self.journal.record_completed(job.job_id, status, response.error)
        if self._avg_job_seconds <= 0.0:
            self._avg_job_seconds = elapsed
        else:
            self._avg_job_seconds = 0.7 * self._avg_job_seconds + 0.3 * elapsed
        runtime.response = response
        self._emit(
            runtime,
            JobCompleted(
                job_id=job.job_id,
                tenant=job.request.tenant,
                status=status,
                plausible=response.plausible,
                fitness=response.fitness,
                elapsed_seconds=elapsed,
                cache_hit_rate=float(response.cache.get("hit_rate", 0.0)),
            ),
        )
        runtime.done.set()
        runtime.broadcast.close()
        job.dropped_events = runtime.broadcast.dropped_total()
        self._pump()

    def _run_job(
        self, job: Job, runtime: _JobRuntime
    ) -> tuple[str, RepairResponse, float]:
        """Worker-thread body: execute the repair, package the response.

        Cache statistics are persistent-tier counter deltas over the
        job's execution window; with overlapping jobs on one shared
        store they include the neighbours' lookups, so treat them as
        daemon-level telemetry, exact only for serialized submissions.
        """
        # Lazy import: repro.api imports repro.service.jobs at module
        # scope, so importing it here (not at module top) keeps
        # ``repro.service`` importable on its own without a cycle.
        from ..api import run_request

        store = runtime.store
        hits0 = store.hits if store is not None else 0
        misses0 = store.misses if store is not None else 0
        start = time.monotonic()
        # The response is built inside the isolation boundary too: an
        # outcome that fails to serialize fails the job, never the daemon.
        try:
            outcome = run_request(
                job.request,
                base_config=self.base_config,
                observers=[runtime.broadcast],
                cancel=job.cancel_flag.is_set,
            )
            response = RepairResponse(
                job_id=job.job_id,
                status="cancelled" if job.cancel_flag.is_set() else "done",
                plausible=outcome.plausible,
                fitness=outcome.fitness,
                outcome_json=outcome_to_json(outcome, job.request.scenario),
                cache=self._cache_stats(store, hits0, misses0),
            )
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            response = RepairResponse(
                job_id=job.job_id,
                status="failed",
                error=f"{type(exc).__name__}: {exc}",
                cache=self._cache_stats(store, hits0, misses0),
            )
        return response.status, response, time.monotonic() - start

    @staticmethod
    def _cache_stats(store, hits0: int, misses0: int) -> dict[str, Any]:
        """Persistent-store counter deltas → the response ``cache`` dict."""
        if store is None:
            return {"store_hits": 0, "store_misses": 0, "hit_rate": 0.0}
        hits = store.hits - hits0
        misses = store.misses - misses0
        total = hits + misses
        return {
            "store_hits": hits,
            "store_misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
        }

    def _refresh_dropped(self) -> None:
        """Pull live dropped-event tallies into the job table rows."""
        for job_id, runtime in self._runtimes.items():
            job = self.queue.get(job_id)
            if job is not None:
                job.dropped_events = runtime.broadcast.dropped_total()

    def _emit(self, runtime: _JobRuntime, event: RepairEvent) -> None:
        """Deliver one lifecycle event to daemon observers + streamers."""
        if self._observers:
            self._observers.emit(event)
        runtime.broadcast.on_event(event)


__all__ = ["PROTOCOL_VERSION", "MAX_LINE_BYTES", "RepairDaemon"]
