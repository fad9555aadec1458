"""PersistentEvalCache: sharding, LRU-by-bytes, corruption, restarts."""

import hashlib
import json
import logging
import os
import threading

import pytest

from repro.cache import PersistentEvalCache


def key_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate the process-wide shared-instance registry per test."""
    PersistentEvalCache.reset_shared()
    yield
    PersistentEvalCache.reset_shared()


class TestBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        key = key_of("a")
        payload = {"fitness": 0.5, "nested": {"x": [1, 2]}}
        store.put(key, payload)
        assert store.get(key) == payload
        assert key in store
        assert len(store) == 1
        info = store.info()
        assert info["hits"] == 1
        assert info["misses"] == 0
        assert info["stores"] == 1

    def test_miss_counts(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        assert store.get(key_of("nope")) is None
        assert store.info()["misses"] == 1

    def test_sharded_layout(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        key = key_of("a")
        store.put(key, {"v": 1})
        path = tmp_path / "c" / "shards" / key[:2] / f"{key}.json"
        assert path.is_file()
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == 1
        assert on_disk["key"] == key
        assert on_disk["payload"] == {"v": 1}

    def test_malformed_key_rejected(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        for bad in ("", "xyz", "Z" * 64, key_of("a")[:-1], "../../etc/passwd"):
            with pytest.raises(ValueError):
                store.get(bad)
            with pytest.raises(ValueError):
                store.put(bad, {})


class TestEviction:
    def _sized_payload(self, n: int) -> dict:
        return {"pad": "x" * n}

    def test_lru_eviction_by_bytes(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c", max_bytes=400)
        a, b, c = key_of("a"), key_of("b"), key_of("c")
        store.put(a, self._sized_payload(50))
        store.put(b, self._sized_payload(50))
        # Refresh a's recency, then push past the budget: b must go first.
        assert store.get(a) is not None
        store.put(c, self._sized_payload(50))
        assert store.get(b) is None
        assert store.get(a) is not None
        assert store.get(c) is not None
        assert store.info()["evictions"] >= 1
        assert store.info()["bytes"] <= 400

    def test_newest_entry_survives_tiny_budget(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c", max_bytes=10)
        key = key_of("big")
        store.put(key, self._sized_payload(500))
        assert store.get(key) is not None

    def test_unbounded_when_zero(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c", max_bytes=0)
        for i in range(20):
            store.put(key_of(str(i)), self._sized_payload(100))
        assert len(store) == 20
        assert store.info()["evictions"] == 0


class TestCorruption:
    def test_corrupt_json_dropped_and_counted(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        key = key_of("a")
        store.put(key, {"v": 1})
        path = tmp_path / "c" / "shards" / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert store.get(key) is None
        assert store.info()["corrupt_dropped"] == 1
        assert not path.exists()

    def test_wrong_key_inside_file_dropped(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        key = key_of("a")
        store.put(key, {"v": 1})
        path = tmp_path / "c" / "shards" / key[:2] / f"{key}.json"
        path.write_text(json.dumps({"schema": 1, "key": key_of("b"), "payload": {}}))
        assert store.get(key) is None
        assert store.info()["corrupt_dropped"] == 1

    def test_unknown_schema_dropped(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "c")
        key = key_of("a")
        store.put(key, {"v": 1})
        path = tmp_path / "c" / "shards" / key[:2] / f"{key}.json"
        path.write_text(json.dumps({"schema": 99, "key": key, "payload": {"v": 1}}))
        assert store.get(key) is None

    def test_corruption_never_raises_on_scan(self, tmp_path):
        root = tmp_path / "c"
        store = PersistentEvalCache(root)
        store.put(key_of("good"), {"v": 1})
        shard = root / "shards" / "ab"
        shard.mkdir(exist_ok=True)
        (shard / "not-a-key.json").write_text("junk")
        reopened = PersistentEvalCache(root)
        assert reopened.get(key_of("good")) == {"v": 1}


class TestPersistence:
    def test_entries_survive_reopen(self, tmp_path):
        root = tmp_path / "c"
        store = PersistentEvalCache(root)
        for i in range(5):
            store.put(key_of(str(i)), {"i": i})
        # Simulate a daemon restart: brand-new instance, same directory.
        reopened = PersistentEvalCache(root)
        assert len(reopened) == 5
        for i in range(5):
            assert reopened.get(key_of(str(i))) == {"i": i}
        assert reopened.info()["hits"] == 5

    def test_sibling_instance_adoption(self, tmp_path):
        """An entry written by another process appears on index miss."""
        root = tmp_path / "c"
        mine = PersistentEvalCache(root)
        other = PersistentEvalCache(root)  # simulates a sibling process
        key = key_of("shared")
        other.put(key, {"v": 7})
        assert mine.get(key) == {"v": 7}

    def test_open_is_a_shared_singleton(self, tmp_path):
        root = tmp_path / "c"
        first = PersistentEvalCache.open(root, max_bytes=100)
        second = PersistentEvalCache.open(root, max_bytes=200)
        assert first is second
        # The larger budget wins so a later opener is never starved.
        assert first.max_bytes == 200

    def test_open_relative_and_absolute_alias(self, tmp_path):
        root = tmp_path / "c"
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            rel = PersistentEvalCache.open("c")
            absolute = PersistentEvalCache.open(root)
        finally:
            os.chdir(cwd)
        assert rel is absolute


class TestConcurrentPublish:
    def test_two_threads_publish_the_same_key(self, tmp_path, monkeypatch, caplog):
        """Each writer publishes its own temp file, even for one key.

        ``os.replace`` is held at a barrier, so both threads have written
        their temp files before either publishes; shared temp names would
        make the second publish fail.
        """
        import repro.cache.store as store_mod

        barrier = threading.Barrier(2, timeout=30)

        class HeldOs:
            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def replace(src, dst):
                barrier.wait()
                os.replace(src, dst)

        monkeypatch.setattr(store_mod, "os", HeldOs())
        store = PersistentEvalCache(tmp_path / "c")
        key = key_of("shared")
        writers = [
            threading.Thread(target=store.put, args=(key, {"writer": i}))
            for i in range(2)
        ]
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
        assert not any(writer.is_alive() for writer in writers)
        assert not any("cache store failed" in r.getMessage() for r in caplog.records)
        assert store.info()["stores"] == 2
        assert store.get(key) in ({"writer": 0}, {"writer": 1})
        shard = tmp_path / "c" / "shards" / key[:2]
        assert [path.name for path in shard.iterdir()] == [f"{key}.json"]


class TestScanDeterminism:
    """Index rebuild order is stable even with indistinguishable mtimes.

    On filesystems with coarse timestamps a whole run's entries can
    share one mtime; the scan breaks ties by key (and compares mtimes at
    nanosecond resolution), so the rebuilt LRU order — and therefore the
    eviction order — is identical on every restart.
    """

    def test_equal_mtime_rebuild_is_key_ordered(self, tmp_path):
        root = tmp_path / "c"
        store = PersistentEvalCache(root)
        keys = sorted(key_of(str(i)) for i in range(6))
        for key in reversed(keys):  # write in anti-sorted order
            store.put(key, {"v": 1})
        stamp_ns = 1_700_000_000 * 10**9
        for path in (root / "shards").rglob("*.json"):
            os.utime(path, ns=(stamp_ns, stamp_ns))
        first = PersistentEvalCache(root)
        second = PersistentEvalCache(root)
        assert list(first._index) == keys
        assert list(second._index) == keys

    def test_equal_mtime_eviction_picks_identical_victims(self, tmp_path):
        import shutil

        root = tmp_path / "c"
        store = PersistentEvalCache(root)
        for i in range(6):
            store.put(key_of(str(i)), {"pad": "x" * 50})
        stamp_ns = 1_700_000_000 * 10**9
        for path in (root / "shards").rglob("*.json"):
            os.utime(path, ns=(stamp_ns, stamp_ns))
        clone = tmp_path / "clone"
        shutil.copytree(root, clone)
        for path in (clone / "shards").rglob("*.json"):
            os.utime(path, ns=(stamp_ns, stamp_ns))

        def survivors(directory):
            reopened = PersistentEvalCache(directory, max_bytes=400)
            reopened.put(key_of("trigger"), {"pad": "x" * 50})
            return set(reopened._index)

        left, right = survivors(root), survivors(clone)
        assert left == right
        assert len(left) < 7  # the budget actually forced evictions
