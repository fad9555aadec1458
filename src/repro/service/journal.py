"""Durable write-ahead job journal for the repair daemon.

The daemon keeps queued and running jobs in memory; without a journal a
crash (or ``kill -9``) silently loses them all.  :class:`JobJournal`
records every job's admission, start, and terminal completion as one
JSON file per job, written atomically (tmp file + ``os.replace``, the
same discipline as :class:`~repro.cache.store.PersistentEvalCache`), so
at any instant the directory is a consistent snapshot of daemon state.

On ``repro serve --recover`` the daemon replays the journal
(:meth:`JobJournal.unfinished`) and re-admits every job that never
reached a terminal state.  The journal stores requests, not engine
state: a recovered job runs its request again from the start.  The
search is deterministic and every evaluation it scored before the crash
is in the persistent eval cache, so the replay reaches the crash point
on disk hits and ends on the outcome an uninterrupted run would have.

Layout under ``--journal-dir``::

    jobs/<job_id>.json          admission/start/terminal record

Anything else under the directory, such as the engine-state directory an
older build wrote, is ignored and left in place.

Corrupt or truncated files (a crash can land mid-write only on the tmp
file, but disks lie) are dropped and counted, never fatal — mirroring
the cache store's corruption tolerance.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import Any

logger = logging.getLogger("repro.service")

#: On-disk journal schema; bump on incompatible record changes.
JOURNAL_SCHEMA = 1

#: Job states with nothing left to do; anything else is re-admitted.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class JournalRecord:
    """One job's journaled lifecycle (parsed from ``jobs/<id>.json``)."""

    def __init__(
        self,
        job_id: str,
        state: str,
        request: dict[str, Any],
        error: str = "",
        attempts: int = 1,
    ) -> None:
        self.job_id = job_id
        self.state = state
        #: The admitted request's ``to_dict`` form (re-parsed on recovery).
        self.request = request
        self.error = error
        #: How many daemon lifetimes have admitted this job (1 = never
        #: recovered).  Poison jobs that crash the daemon repeatedly are
        #: failed instead of re-admitted once this crosses the cap.
        self.attempts = attempts

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (the on-disk record shape)."""
        return {
            "schema": JOURNAL_SCHEMA,
            "job_id": self.job_id,
            "state": self.state,
            "request": self.request,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalRecord":
        if (
            not isinstance(data, dict)
            or data.get("schema") != JOURNAL_SCHEMA
            or not isinstance(data.get("job_id"), str)
            or not isinstance(data.get("request"), dict)
        ):
            raise ValueError("malformed journal record")
        return cls(
            job_id=data["job_id"],
            state=str(data.get("state", "")),
            request=data["request"],
            error=str(data.get("error", "")),
            attempts=int(data.get("attempts", 1)),
        )


def _job_ordinal(job_id: str) -> int:
    """The ``<n>`` in ``job-<n>-<key8>`` (0 for foreign id shapes)."""
    parts = job_id.split("-")
    if len(parts) >= 2 and parts[0] == "job" and parts[1].isdigit():
        return int(parts[1])
    return 0


class JobJournal:
    """Atomic per-job WAL under one directory.

    Thread-safe: every write and counter update holds one lock, so the
    journal may be shared across threads.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self._jobs_dir = self.root / "jobs"
        self._jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.records_written = 0
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------
    # Job lifecycle records
    # ------------------------------------------------------------------

    def record_admitted(self, job_id: str, request: dict[str, Any],
                        attempts: int = 1) -> None:
        """WAL an admission (or recovery re-admission) before it runs."""
        self._write_record(
            JournalRecord(job_id, "queued", dict(request), attempts=attempts)
        )

    def record_started(self, job_id: str) -> None:
        """Transition a journaled job to ``running``."""
        self._transition(job_id, "running")

    def record_completed(self, job_id: str, state: str, error: str = "") -> None:
        """Terminal transition (``done``, ``failed`` or ``cancelled``)."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"non-terminal journal state {state!r}")
        self._transition(job_id, state, error)

    def _transition(self, job_id: str, state: str, error: str = "") -> None:
        record = self.get(job_id)
        if record is None:
            # A journal attached mid-flight (or a dropped corrupt record):
            # synthesize a requestless record so the state is not lost —
            # recovery skips it (no request to re-admit) but operators
            # still see the terminal state.
            record = JournalRecord(job_id, state, {}, error)
        record.state = state
        record.error = error
        self._write_record(record)

    def _write_record(self, record: JournalRecord) -> None:
        path = self._jobs_dir / f"{record.job_id}.json"
        data = json.dumps(record.to_dict(), sort_keys=True).encode()
        with self._lock:
            if self._atomic_write(path, data):
                self.records_written += 1

    def get(self, job_id: str) -> JournalRecord | None:
        """Load one record; None when absent or corrupt (then dropped)."""
        path = self._jobs_dir / f"{job_id}.json"
        return self._load_record(path)

    def records(self) -> list[JournalRecord]:
        """Every parseable record, ordered by job ordinal then id."""
        out: list[JournalRecord] = []
        try:
            paths = sorted(self._jobs_dir.iterdir())
        except OSError:  # pragma: no cover - unreadable journal
            logger.warning("journal scan failed under %s", self._jobs_dir)
            return out
        for path in paths:
            if path.suffix != ".json":
                continue  # tmp files, strays
            record = self._load_record(path)
            if record is not None:
                out.append(record)
        out.sort(key=lambda r: (_job_ordinal(r.job_id), r.job_id))
        return out

    def unfinished(self) -> list[JournalRecord]:
        """Records needing recovery: admitted/started but never terminal."""
        return [
            record
            for record in self.records()
            if record.state not in TERMINAL_STATES and record.request
        ]

    def max_ordinal(self) -> int:
        """Highest ``job-<n>-…`` ordinal ever journaled (0 when empty).

        Recovery preserves journaled job ids; the queue's id counter must
        start past them so new jobs never collide.
        """
        return max((_job_ordinal(r.job_id) for r in self.records()), default=0)

    def _load_record(self, path: Path) -> JournalRecord | None:
        try:
            return JournalRecord.from_dict(json.loads(path.read_bytes()))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            with self._lock:
                self.corrupt_dropped += 1
            logger.warning("dropping corrupt journal record %s", path.name)
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort
                pass
            return None

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _atomic_write(self, path: Path, data: bytes) -> bool:
        """tmp + ``os.replace`` write (lock held); False on failure."""
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
            return True
        except OSError as exc:
            logger.warning("journal write failed for %s (%s)", path.name, exc)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort
                pass
            return False

    def info(self) -> dict[str, int]:
        """Counters (tests and operator diagnostics)."""
        with self._lock:
            return {
                "records_written": self.records_written,
                "corrupt_dropped": self.corrupt_dropped,
            }

    # Unused here, but the end-to-end benchmark tracer
    # (benchmarks/e2e/tracer.py) wraps this name in this module.
    def save_checkpoint(self, job_id: str, state: dict[str, Any]) -> None:
        """Do nothing: the journal records jobs, never engine state."""


__all__ = [
    "JOURNAL_SCHEMA",
    "TERMINAL_STATES",
    "JobJournal",
    "JournalRecord",
]
