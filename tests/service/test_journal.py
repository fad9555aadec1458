"""Journal unit tests: lifecycle, atomicity, corruption."""

import json

from repro.service import RepairRequest
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    JournalRecord,
    TERMINAL_STATES,
)


def request_dict(scenario: str = "counter_reset") -> dict:
    return RepairRequest(scenario=scenario, seeds=(0,)).to_dict()


class TestLifecycleRecords:
    def test_admitted_then_started_then_completed(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict())
        assert journal.get("job-1-aaaaaaaa").state == "queued"
        journal.record_started("job-1-aaaaaaaa")
        assert journal.get("job-1-aaaaaaaa").state == "running"
        journal.record_completed("job-1-aaaaaaaa", "done")
        record = journal.get("job-1-aaaaaaaa")
        assert record.state == "done"
        assert record.request == request_dict()  # preserved across transitions
        assert journal.unfinished() == []

    def test_completed_rejects_non_terminal_states(self, tmp_path):
        journal = JobJournal(tmp_path)
        for state in ("queued", "running", "bogus"):
            try:
                journal.record_completed("job-1-aaaaaaaa", state)
            except ValueError:
                continue
            raise AssertionError(f"{state!r} accepted as terminal")
        assert TERMINAL_STATES == {"done", "failed", "cancelled"}

    def test_unfinished_returns_only_recoverable_records(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict())
        journal.record_admitted("job-2-bbbbbbbb", request_dict("dec_numeric"))
        journal.record_started("job-2-bbbbbbbb")
        journal.record_admitted("job-3-cccccccc", request_dict())
        journal.record_completed("job-3-cccccccc", "done")
        # A terminal transition on a never-admitted id synthesizes a
        # requestless record: visible in records(), never re-admitted.
        journal.record_completed("job-9-dddddddd", "failed", "boom")
        unfinished = [record.job_id for record in journal.unfinished()]
        assert unfinished == ["job-1-aaaaaaaa", "job-2-bbbbbbbb"]
        assert len(journal.records()) == 4

    def test_records_ordered_by_ordinal_and_max_ordinal(self, tmp_path):
        journal = JobJournal(tmp_path)
        for ordinal in (10, 2, 7):
            journal.record_admitted(f"job-{ordinal}-aaaaaaaa", request_dict())
        ids = [record.job_id for record in journal.records()]
        assert ids == ["job-2-aaaaaaaa", "job-7-aaaaaaaa", "job-10-aaaaaaaa"]
        assert journal.max_ordinal() == 10
        assert JobJournal(tmp_path / "empty").max_ordinal() == 0

    def test_attempts_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict(), attempts=3)
        assert journal.get("job-1-aaaaaaaa").attempts == 3


class TestCorruptionTolerance:
    def test_corrupt_record_dropped_and_counted(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict())
        path = tmp_path / "jobs" / "job-1-aaaaaaaa.json"
        path.write_text("{truncated")
        assert journal.get("job-1-aaaaaaaa") is None
        assert not path.exists()
        assert journal.info()["corrupt_dropped"] == 1

    def test_wrong_schema_is_corrupt(self, tmp_path):
        journal = JobJournal(tmp_path)
        record = JournalRecord("job-1-aaaaaaaa", "queued", request_dict())
        data = record.to_dict()
        data["schema"] = JOURNAL_SCHEMA + 1
        (tmp_path / "jobs" / "job-1-aaaaaaaa.json").write_text(json.dumps(data))
        assert journal.records() == []
        assert journal.info()["corrupt_dropped"] == 1

    def test_stray_tmp_files_ignored(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict())
        # A crash can leave a half-written tmp file behind; scans skip it.
        (tmp_path / "jobs" / "job-2-bbbbbbbb.tmp.123").write_text("{half")
        assert [r.job_id for r in journal.records()] == ["job-1-aaaaaaaa"]

    def test_no_partially_written_records_visible(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict())
        # Atomic rename discipline: the only .json file is complete JSON.
        for path in (tmp_path / "jobs").iterdir():
            if path.suffix == ".json":
                json.loads(path.read_bytes())


class TestOlderLayouts:
    def test_engine_state_directory_is_ignored_and_kept(self, tmp_path):
        # Older builds also wrote one engine snapshot per job here.
        legacy = tmp_path / "checkpoints" / "job-1-aaaaaaaa.json"
        legacy.parent.mkdir()
        legacy.write_text('{"schema": 1, "job_id": "job-1-aaaaaaaa", "state": {}}')
        journal = JobJournal(tmp_path)
        journal.record_admitted("job-1-aaaaaaaa", request_dict())
        assert [r.job_id for r in journal.unfinished()] == ["job-1-aaaaaaaa"]
        journal.record_completed("job-1-aaaaaaaa", "done")
        assert journal.unfinished() == []
        assert legacy.exists()
