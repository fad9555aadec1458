"""The versioned, typed job API of the repair service.

Three frozen dataclasses define the wire contract between clients and
the daemon (and double as the canonical argument objects behind
``repro.api``):

- :class:`RepairRequest` — what to repair (a benchmark scenario id, or
  raw design/testbench/golden/oracle texts), with which config
  overrides, seeds, engine, and tenant;
- :class:`JobStatus` — one row of the daemon's job table;
- :class:`RepairResponse` — the terminal answer for one job, carrying
  the outcome report JSON and the job's cache statistics.

All three carry a ``schema_version`` and round-trip losslessly through
``to_json`` / ``from_json``; serialization is *stable* (sorted keys,
fixed separators), so equal values always produce byte-equal JSON —
which is what makes :meth:`RepairRequest.job_key` a usable dedup key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.config import RepairConfig
from ..core.engines import DEFAULT_ENGINE, engine_names

#: Version of the job API schema.  Bump on any incompatible field
#: change; ``from_json`` rejects payloads from other versions.
SCHEMA_VERSION = 1

#: Job states a :class:`JobStatus` may report, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def _stable_json(data: Mapping[str, Any]) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-stable."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _load(cls_name: str, text: str) -> dict[str, Any]:
    """Parse one payload and check its schema version."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{cls_name} payload must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{cls_name} schema_version {version!r} is not supported "
            f"(this build speaks version {SCHEMA_VERSION})"
        )
    return data


@dataclass(frozen=True)
class RepairRequest:
    """One repair job, fully described by value.

    Exactly one problem source must be given: ``scenario`` (a benchmark
    scenario id such as ``"counter_reset"``) or ``design`` +
    ``testbench`` + one of ``golden`` / ``oracle_csv`` (raw Verilog /
    trace-CSV texts).  ``config`` holds :class:`RepairConfig` *overrides*
    as a plain mapping (the same keys ``repair.conf`` accepts), applied
    on top of the server's base config — requests stay valid across
    config-default changes.
    """

    schema_version: int = SCHEMA_VERSION
    #: Benchmark scenario id ("" when the texts below are used).
    scenario: str = ""
    #: Faulty design Verilog text ("" when ``scenario`` is used).
    design: str = ""
    #: Testbench Verilog text (instrumented automatically if needed).
    testbench: str = ""
    #: Golden design text — one oracle source …
    golden: str = ""
    #: … or an expected-behaviour trace CSV (Figure 2 shape).
    oracle_csv: str = ""
    #: :class:`RepairConfig` overrides (string-keyed; values may be
    #: strings or JSON scalars — coerced like ``repair.conf`` entries).
    config: dict[str, Any] = field(default_factory=dict)
    #: Independent trial seeds; first plausible wins.
    seeds: tuple[int, ...] = (0, 1, 2)
    #: Registered repair engine to run (:mod:`repro.core.engines`).
    engine: str = DEFAULT_ENGINE
    #: Fair-share scheduling bucket; never part of the dedup key.
    tenant: str = "default"

    @classmethod
    def from_files(
        cls,
        source: "str | Path",
        testbench: "str | Path",
        golden: "str | Path | None" = None,
        oracle: "str | Path | None" = None,
        **fields: Any,
    ) -> "RepairRequest":
        """A raw-text request read from files (the ``repair.conf`` workflow).

        ``golden`` (a previously-functioning design) and ``oracle`` (an
        expected-behaviour CSV) are the two oracle sources; an absent one
        stays "".  ``fields`` set the remaining request fields.  Nothing
        is validated here: call :meth:`validate`.
        """

        def read(path: "str | Path | None") -> str:
            return Path(path).read_text() if path else ""

        return cls(
            design=read(source),
            testbench=read(testbench),
            golden=read(golden),
            oracle_csv=read(oracle),
            **fields,
        )

    def validate(self) -> "RepairRequest":
        """Check structural validity; raises ``ValueError``.

        Config override *values* are checked separately by
        :meth:`resolved_config` (they need the server's base config).
        """
        if bool(self.scenario) == bool(self.design):
            raise ValueError(
                "provide exactly one of: a scenario id, or design+testbench texts"
            )
        if self.design and not self.testbench:
            raise ValueError("a design text needs a testbench text")
        if self.design and bool(self.golden) == bool(self.oracle_csv):
            raise ValueError(
                "a design text needs exactly one oracle source "
                "(golden design or oracle CSV)"
            )
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.engine not in engine_names():
            raise ValueError(
                f"unknown repair engine {self.engine!r} "
                f"(registered: {', '.join(engine_names())})"
            )
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        return self

    def resolved_config(self, base: RepairConfig | None = None) -> RepairConfig:
        """Apply the request's overrides to ``base`` and validate.

        Raises :class:`~repro.core.config.ConfigError` (a ``ValueError``)
        for unknown keys or bad values — admission fails fast instead of
        a queued job failing later.
        """
        return RepairConfig.from_mapping(
            self.config, base=base, source="repair request"
        )

    def job_key(self) -> str:
        """The dedup/cache key: hash of everything outcome-relevant.

        Two requests with equal keys are guaranteed to produce identical
        outcomes (the engine's determinism contract), so the daemon
        coalesces them onto one job.  ``tenant`` is excluded — identical
        work is identical work regardless of who asked; tenancy affects
        scheduling only.
        """
        data = self.to_dict()
        del data["tenant"]
        return hashlib.sha256(_stable_json(data).encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["seeds"] = list(self.seeds)
        return data

    def to_json(self) -> str:
        """Stable JSON serialization (byte-equal for equal requests)."""
        return _stable_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RepairRequest":
        """Rebuild a request from its :meth:`to_dict` form."""
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(int(s) for s in kwargs["seeds"])
        if "config" in kwargs:
            kwargs["config"] = dict(kwargs["config"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RepairRequest":
        """Inverse of :meth:`to_json`; rejects other schema versions."""
        return cls.from_dict(_load("RepairRequest", text))


@dataclass(frozen=True)
class JobStatus:
    """One row of the daemon's job table (the ``repro jobs`` output)."""

    schema_version: int = SCHEMA_VERSION
    job_id: str = ""
    #: One of :data:`JOB_STATES`.
    state: str = "queued"
    tenant: str = "default"
    #: Scenario id, or ``"<custom>"`` for raw-text requests.
    scenario: str = ""
    #: How many submissions are attached to this job (1 = no joins).
    submissions: int = 1
    #: Error summary for ``failed`` jobs ("" otherwise).
    error: str = ""
    #: Telemetry events dropped by this job's streaming bridges — the
    #: lossy-at-tail backpressure contract made visible: a slow
    #: streaming consumer loses events rather than slowing the engine,
    #: and this counter says how many.  (Additive field; absent in
    #: pre-journal payloads, which parse as 0.)
    dropped_events: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """Stable JSON serialization."""
        return _stable_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        """Rebuild a status row from its :meth:`to_dict` form."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    @classmethod
    def from_json(cls, text: str) -> "JobStatus":
        """Inverse of :meth:`to_json`; rejects other schema versions."""
        return cls.from_dict(_load("JobStatus", text))


@dataclass(frozen=True)
class RepairResponse:
    """The terminal answer for one job.

    ``status`` is ``"done"`` (the repair ran to completion — look at
    ``plausible`` for whether it *succeeded*), ``"failed"`` (the run
    raised; see ``error``), or ``"cancelled"``.  ``outcome_json`` is the
    full :func:`repro.core.serialize.outcome_to_json` report — the same
    bytes a direct ``repro repair`` of the request would produce, modulo
    the wall-clock ``elapsed_seconds`` field.
    """

    schema_version: int = SCHEMA_VERSION
    job_id: str = ""
    status: str = "done"
    plausible: bool = False
    fitness: float = 0.0
    #: Full outcome report JSON ("" for failed/cancelled-before-start).
    outcome_json: str = ""
    error: str = ""
    #: Evaluation-cache statistics measured over this job (persistent
    #: tier deltas: ``store_hits``, ``store_misses``, ``hit_rate``).
    cache: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """Stable JSON serialization."""
        return _stable_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RepairResponse":
        """Rebuild a response from its :meth:`to_dict` form."""
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "cache" in kwargs:
            kwargs["cache"] = dict(kwargs["cache"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RepairResponse":
        """Inverse of :meth:`to_json`; rejects other schema versions."""
        return cls.from_dict(_load("RepairResponse", text))


__all__ = [
    "SCHEMA_VERSION",
    "JOB_STATES",
    "RepairRequest",
    "JobStatus",
    "RepairResponse",
]
