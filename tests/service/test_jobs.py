"""The versioned typed job API: round-trips, validation, job keys."""

import json

import pytest

from repro.service.jobs import (
    JOB_STATES,
    SCHEMA_VERSION,
    JobStatus,
    RepairRequest,
    RepairResponse,
)


class TestRepairRequest:
    def test_json_roundtrip_is_lossless(self):
        request = RepairRequest(
            scenario="counter_reset",
            config={"population_size": 20, "eval_chunk_size": 8},
            seeds=(3, 1, 4),
            tenant="team-a",
        )
        again = RepairRequest.from_json(request.to_json())
        assert again == request
        assert isinstance(again.seeds, tuple)

    def test_serialization_is_stable(self):
        a = RepairRequest(scenario="s", config={"b": 1, "a": 2})
        b = RepairRequest(scenario="s", config={"a": 2, "b": 1})
        assert a.to_json() == b.to_json()

    def test_schema_version_embedded_and_enforced(self):
        request = RepairRequest(scenario="s")
        data = json.loads(request.to_json())
        assert data["schema_version"] == SCHEMA_VERSION
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            RepairRequest.from_json(json.dumps(data))

    def test_job_key_ignores_tenant(self):
        a = RepairRequest(scenario="s", tenant="alpha")
        b = RepairRequest(scenario="s", tenant="beta")
        assert a.job_key() == b.job_key()

    def test_job_key_tracks_every_work_field(self):
        base = RepairRequest(scenario="s")
        variants = [
            RepairRequest(scenario="other"),
            RepairRequest(scenario="s", seeds=(1,)),
            RepairRequest(scenario="s", config={"phi": 3.0}),
            RepairRequest(design="module m; endmodule", testbench="tb", golden="g"),
        ]
        keys = {base.job_key()} | {v.job_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_validate_requires_exactly_one_problem_source(self):
        with pytest.raises(ValueError):
            RepairRequest().validate()
        with pytest.raises(ValueError):
            RepairRequest(scenario="s", design="d", testbench="t").validate()
        with pytest.raises(ValueError):
            RepairRequest(design="d").validate()  # no testbench
        with pytest.raises(ValueError):
            RepairRequest(design="d", testbench="t").validate()  # no oracle
        with pytest.raises(ValueError):
            RepairRequest(
                design="d", testbench="t", golden="g", oracle_csv="o"
            ).validate()  # both oracles
        assert RepairRequest(scenario="s").validate() is not None
        assert RepairRequest(design="d", testbench="t", golden="g").validate()

    def test_validate_checks_seeds_engine_tenant(self):
        with pytest.raises(ValueError):
            RepairRequest(scenario="s", seeds=()).validate()
        with pytest.raises(ValueError, match="unknown repair engine"):
            RepairRequest(scenario="s", engine="nope").validate()
        with pytest.raises(ValueError, match="tenant"):
            RepairRequest(scenario="s", tenant="").validate()

    def test_resolved_config_rejects_unknown_keys(self):
        request = RepairRequest(scenario="s", config={"not_a_knob": 1})
        with pytest.raises(ValueError):
            request.resolved_config()

    def test_resolved_config_applies_overrides(self):
        request = RepairRequest(scenario="s", config={"population_size": 17})
        assert request.resolved_config().population_size == 17


class TestJobStatus:
    def test_roundtrip(self):
        status = JobStatus(
            job_id="job-1-abc", state="running", tenant="t", scenario="s",
            submissions=3,
        )
        assert JobStatus.from_json(status.to_json()) == status
        assert status.state in JOB_STATES

    def test_version_enforced(self):
        data = json.loads(JobStatus(job_id="j").to_json())
        data["schema_version"] = 0
        with pytest.raises(ValueError):
            JobStatus.from_json(json.dumps(data))


class TestRepairResponse:
    def test_roundtrip(self):
        response = RepairResponse(
            job_id="job-1-abc",
            status="done",
            plausible=True,
            fitness=1.0,
            outcome_json='{"plausible": true}',
            cache={"store_hits": 5, "store_misses": 0, "hit_rate": 1.0},
        )
        again = RepairResponse.from_json(response.to_json())
        assert again == response
        assert again.cache["hit_rate"] == 1.0

    def test_unknown_fields_ignored(self):
        data = json.loads(RepairResponse(job_id="j").to_json())
        data["from_the_future"] = True
        assert RepairResponse.from_json(json.dumps(data)).job_id == "j"
