"""A persistent, directory-sharded, LRU-evicted JSON payload store.

This is the disk tier of the evaluation cache (``docs/service.md``):
entries are JSON mappings keyed by SHA-256 hex digests, written one file
per entry under 256 two-hex-digit shard directories::

    <root>/shards/ab/abcdef....json

Design constraints, in the order they drove the implementation:

- **Crash/restart durability** — writes go to a temp file in the shard
  directory and are published with an atomic ``os.replace``; a reader
  never observes a half-written entry, and a store killed mid-write
  loses at most the entry being written.
- **Corruption tolerance** — a file that fails to read, parse, or match
  its expected key/schema is counted, deleted, and reported as a miss;
  a damaged shard can never poison a repair run.
- **Bounded footprint** — total payload bytes are capped
  (``max_bytes``); eviction is least-recently-*used* (reads refresh both
  the in-memory LRU order and the file mtime, so the order survives a
  restart approximately).
- **Concurrent use** — instances are thread-safe (one lock around index
  mutations), and multiple *processes* sharing a root cooperate through
  the filesystem: an index miss falls through to a direct file probe, so
  entries written by a sibling process after this instance scanned the
  directory are still found.

The store is payload-agnostic: it moves ``dict`` payloads and knows
nothing about candidate results — see
:func:`repro.core.backend.encode_eval_payload` for the schema layered on
top of it.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import OrderedDict
from pathlib import Path

logger = logging.getLogger("repro.cache")

#: On-disk entry schema version; bump on incompatible layout changes.
#: Entries with a different schema are treated as corrupt (dropped).
STORE_SCHEMA = 1

#: Hex digits of the key used as the shard directory name (256 shards).
_SHARD_CHARS = 2

#: Characters allowed in a store key (a SHA-256 hex digest).
_HEX = frozenset("0123456789abcdef")


def _is_key(key: str) -> bool:
    """True for a well-formed SHA-256 hex key."""
    return len(key) == 64 and set(key) <= _HEX


class PersistentEvalCache:
    """Sharded on-disk payload cache with byte-budget LRU eviction.

    Construct directly for a private instance, or go through
    :meth:`open` to share one instance per resolved root path within the
    process (the repair service does this so every job sees one set of
    statistics and one LRU order).
    """

    #: Process-wide shared instances, keyed by resolved root path.
    _shared: dict[Path, "PersistentEvalCache"] = {}
    _shared_lock = threading.Lock()

    def __init__(self, root: str | Path, max_bytes: int = 0):
        #: Root directory (created eagerly; shard dirs are made on demand).
        self.root = Path(root)
        #: Total payload budget in bytes; 0 = unbounded.
        self.max_bytes = max(0, int(max_bytes))
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Entries dropped because they failed to read/parse/verify.
        self.corrupt_dropped = 0
        self._lock = threading.RLock()
        #: key → file size in bytes, in least-recently-used-first order.
        self._index: OrderedDict[str, int] = OrderedDict()
        self._bytes = 0
        (self.root / "shards").mkdir(parents=True, exist_ok=True)
        self._scan()

    # ------------------------------------------------------------------
    # Shared-instance registry
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, root: str | Path, max_bytes: int = 0) -> "PersistentEvalCache":
        """One shared instance per resolved root path (process-wide).

        The first open of a root fixes its ``max_bytes``; later opens of
        the same root reuse the instance (a *larger* requested budget
        widens it, so concurrent jobs never fight over a narrower cap).
        """
        resolved = Path(root).resolve()
        with cls._shared_lock:
            store = cls._shared.get(resolved)
            if store is None:
                store = cls(resolved, max_bytes)
                cls._shared[resolved] = store
            elif max_bytes > store.max_bytes:
                store.max_bytes = int(max_bytes)
            return store

    @classmethod
    def reset_shared(cls) -> None:
        """Forget all shared instances (tests: force a fresh disk scan)."""
        with cls._shared_lock:
            cls._shared.clear()

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Return the payload stored under ``key``, or None.

        A hit refreshes the entry's LRU position and file mtime; a
        damaged entry is deleted and reported as a miss.  An index miss
        probes the filesystem directly, so entries written by another
        process after this instance's startup scan are still found.
        """
        if not _is_key(key):
            raise ValueError(f"bad store key {key!r} (expected sha256 hex)")
        path = self._path(key)
        with self._lock:
            known = key in self._index
            if not known:
                try:
                    size = path.stat().st_size
                except OSError:
                    self.misses += 1
                    return None
                # Written by a sibling process since our scan: adopt it.
                self._admit(key, size)
            payload = self._read(key, path)
            if payload is None:
                self.misses += 1
                return None
            self._index.move_to_end(key)
            self.hits += 1
        try:
            os.utime(path)  # refresh mtime so LRU order survives restarts
        except OSError:  # pragma: no cover - best-effort
            pass
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` (atomic publish, then evict).

        Overwrites an existing entry; storage failures are logged and
        swallowed (a full disk degrades the cache, never the caller).
        """
        if not _is_key(key):
            raise ValueError(f"bad store key {key!r} (expected sha256 hex)")
        record = {"schema": STORE_SCHEMA, "key": key, "payload": payload}
        try:
            data = json.dumps(record, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError):
            logger.warning("unserializable cache payload for %s; skipping", key[:12])
            return
        path = self._path(key)
        # One temp name per writer (process and thread): two threads
        # publishing the same key must never share a temp file.  The
        # scan skips it, since it is not named ``<key>.json``.
        tmp = path.with_name(f"{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            logger.warning("cache store failed for %s (%s)", key[:12], exc)
            tmp.unlink(missing_ok=True)
            return
        with self._lock:
            self._admit(key, len(data))
            self._index.move_to_end(key)
            self.stores += 1
            self._evict()

    def __contains__(self, key: str) -> bool:
        """True when ``key`` is present (no LRU refresh, no stats)."""
        with self._lock:
            return key in self._index or self._path(key).exists()

    def __len__(self) -> int:
        return len(self._index)

    def info(self) -> dict[str, int]:
        """Counters and occupancy (benchmarks, tests, ``repro jobs``)."""
        with self._lock:
            return {
                "entries": len(self._index),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "corrupt_dropped": self.corrupt_dropped,
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / "shards" / key[:_SHARD_CHARS] / f"{key}.json"

    def _admit(self, key: str, size: int) -> None:
        """Add/update one index entry (lock held)."""
        self._bytes += size - self._index.get(key, 0)
        self._index[key] = size

    def _scan(self) -> None:
        """Rebuild the index from disk, oldest-mtime first (startup).

        Ordered by ``(st_mtime_ns, key)``: nanosecond mtimes plus the
        key tie-break make the rebuilt LRU order — and therefore the
        eviction order — deterministic even on filesystems with coarse
        timestamps, where a whole run's entries can share one mtime.
        """
        found: list[tuple[int, str, int]] = []
        shards = self.root / "shards"
        try:
            for shard in shards.iterdir():
                if not shard.is_dir():
                    continue
                for path in shard.iterdir():
                    key = path.name[: -len(".json")] if path.name.endswith(".json") else ""
                    if not _is_key(key):
                        continue  # temp files, strays
                    try:
                        stat = path.stat()
                    except OSError:  # pragma: no cover - racing deletion
                        continue
                    found.append((stat.st_mtime_ns, key, stat.st_size))
        except OSError:  # pragma: no cover - unreadable root
            logger.warning("cache scan failed under %s", shards)
        for _, key, size in sorted(found):
            self._admit(key, size)

    def _read(self, key: str, path: Path) -> dict | None:
        """Load and verify one entry; drop it on any defect (lock held)."""
        try:
            record = json.loads(path.read_bytes())
            if (
                not isinstance(record, dict)
                or record.get("schema") != STORE_SCHEMA
                or record.get("key") != key
                or not isinstance(record.get("payload"), dict)
            ):
                raise ValueError("malformed cache entry")
        except (OSError, ValueError):
            self._drop(key, path)
            return None
        return record["payload"]

    def _drop(self, key: str, path: Path) -> None:
        """Delete a corrupt entry (lock held)."""
        self.corrupt_dropped += 1
        logger.warning("dropping corrupt cache entry %s", key[:12])
        self._forget(key)
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort
            pass

    def _forget(self, key: str) -> None:
        size = self._index.pop(key, None)
        if size is not None:
            self._bytes -= size

    def _evict(self) -> None:
        """Evict least-recently-used entries over budget (lock held).

        The newest entry is never evicted, so one oversized payload
        cannot wedge the store into thrashing itself empty.
        """
        if self.max_bytes <= 0:
            return
        while self._bytes > self.max_bytes and len(self._index) > 1:
            key, size = self._index.popitem(last=False)
            self._bytes -= size
            self.evictions += 1
            try:
                self._path(key).unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort
                pass
