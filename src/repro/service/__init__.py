"""repro.service — repair-as-a-service on top of the repro pipeline.

Long-lived repair infrastructure: instead of one ``repro repair``
process per request, a daemon (:class:`RepairDaemon`, ``repro serve``)
owns a persistent sharded evaluation cache and a fair-share job queue,
so repeated and concurrent repair requests share evaluation work.

Layers, bottom-up:

- :mod:`repro.service.jobs` — the versioned typed job API
  (:class:`RepairRequest` / :class:`JobStatus` / :class:`RepairResponse`)
  with stable JSON round-trips and content-hash job keys;
- :mod:`repro.service.queue` — deterministic dedup/fair-share/quota
  scheduling (:class:`JobQueue`), pure bookkeeping with no I/O;
- :mod:`repro.service.daemon` — the asyncio Unix-socket NDJSON server
  executing jobs on a thread pool and streaming :mod:`repro.obs`
  telemetry to clients;
- :mod:`repro.service.journal` — the durable job journal
  (:class:`JobJournal`) write-ahead logging each job's admission, start
  and completion for crash recovery (``repro serve --journal-dir``);
- :mod:`repro.service.client` — a blocking client (:class:`ServiceClient`)
  used by ``repro submit`` / ``repro jobs`` and the tests, with typed
  retryable errors and idempotent resubmission.

See ``docs/service.md`` for the protocol and operational guide.
"""

from __future__ import annotations

from .client import (
    ServiceClient,
    ServiceError,
    ServiceInterruptedError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from .daemon import PROTOCOL_VERSION, RepairDaemon
from .jobs import JOB_STATES, SCHEMA_VERSION, JobStatus, RepairRequest, RepairResponse
from .journal import JobJournal
from .queue import Job, JobQueue

__all__ = [
    "JOB_STATES",
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobStatus",
    "RepairDaemon",
    "RepairRequest",
    "RepairResponse",
    "ServiceClient",
    "ServiceError",
    "ServiceInterruptedError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
]
