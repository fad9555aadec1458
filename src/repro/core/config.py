"""CirFix configuration (paper §4.2 experimental parameters).

The defaults mirror the paper: population 5000, 8 generations, repair
template threshold 0.2, mutation threshold 0.7, delete/insert/replace
thresholds 0.3/0.3/0.4, tournament size 5, elitism 5%, φ = 2, 12-hour
wall-clock bound.  Tests and benchmarks use scaled-down budgets via
:meth:`RepairConfig.scaled`.

Construction is canonicalised here: :meth:`RepairConfig.from_file`
(artifact-style ``repair.conf``), :meth:`RepairConfig.from_cli_args`
(argparse namespaces), and :meth:`RepairConfig.from_mapping` (any
string-keyed mapping) all funnel through one coercion + validation
path — unknown keys fail fast naming the offending key, and every
entry point reports range errors identically.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

#: Valid values of :attr:`RepairConfig.backend` (canonical home; also
#: re-exported by :mod:`repro.core.backend` for compatibility).
BACKEND_NAMES = ("auto", "serial", "process")


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or out-of-range parameters."""


@dataclass(frozen=True)
class RepairConfig:
    """All knobs of the CirFix search (Algorithm 1 inputs)."""

    #: GP population size (paper: 5000).
    population_size: int = 5000
    #: Maximum generations of evolution (paper: 8).
    max_generations: int = 8
    #: Probability of applying a repair template instead of an operator.
    rt_threshold: float = 0.2
    #: Probability of mutation (vs crossover) among operator applications.
    mut_threshold: float = 0.7
    #: Mutation sub-operator thresholds (delete, insert; replace is the rest).
    delete_threshold: float = 0.3
    insert_threshold: float = 0.3
    #: Tournament size for parent selection (paper: t = 5).
    tournament_size: int = 5
    #: Fraction of top candidates propagated unchanged (paper: e = 5%).
    elitism_fraction: float = 0.05
    #: Penalty weight for x/z bit comparisons (paper: φ = 2).
    phi: float = 2.0
    #: Wall-clock bound in seconds (paper: 12 hours).
    max_wall_seconds: float = 12 * 3600.0
    #: Hard bound on fitness evaluations (simulations); None = unbounded.
    max_fitness_evals: int | None = None
    #: Simulation bounds passed to the simulator for each candidate.
    max_sim_time: int = 1_000_000
    max_sim_steps: int = 2_000_000
    #: Budget for the minimization step's plausibility checks.
    minimize_budget: int = 256
    #: Enable the extension template set (repro.core.templates_ext) —
    #: the paper's "adding more repair templates" future-work direction.
    #: Off by default so the reproduction matches the paper's template set.
    extended_templates: bool = False
    #: Worker processes for candidate evaluation (the supervised process
    #: pool of :mod:`repro.core.backend`).  Trials and scenario sweeps
    #: always run one after another; 1 = fully serial, the paper's
    #: original behaviour.
    workers: int = 1
    #: Evaluation backend: "serial", "process", or "auto" (process pool
    #: when ``workers > 1``).  See :mod:`repro.core.backend`.
    backend: str = "auto"
    #: Candidates submitted to the backend per batch chunk.  The engine
    #: checks budgets and scans for a plausible winner between chunks, so
    #: this bounds how much work a found repair can strand; it is part of
    #: the deterministic schedule and must not depend on worker count.
    eval_chunk_size: int = 16
    #: Per-candidate wall-clock deadline (seconds) enforced by the
    #: supervised process pool; 0 disables it.  The default is a generous
    #: multiple of any realistic simulation budget, so the deterministic
    #: ``max_sim_steps`` cutoff stays the canonical bound and the
    #: deadline only fires on candidates that are truly wedged (infinite
    #: loops outside the simulator's step accounting).
    eval_deadline_seconds: float = 600.0
    #: How many times a failed (timed-out / crashed / OOM'd) candidate is
    #: re-dispatched before the pool quarantines it as an
    #: :class:`~repro.core.backend.EvalFailure` result.
    eval_max_retries: int = 1
    #: Per-worker address-space *headroom* in MiB (``RLIMIT_AS``, set to
    #: the worker's inherited image plus this much); 0 = no cap.  A
    #: ballooning candidate then raises ``MemoryError`` inside its
    #: worker instead of invoking the host's OOM killer.
    worker_mem_mb: int = 0
    #: Root directory of the persistent evaluation-cache tier
    #: (:class:`repro.cache.PersistentEvalCache`).  Empty (the default)
    #: disables the disk tier; with it set, evaluation results are keyed
    #: by candidate hash *and* an outcome-relevant context digest and
    #: survive across processes and daemon restarts — see
    #: ``docs/service.md``.
    cache_dir: str = ""
    #: Byte budget of the persistent cache tier in MiB (LRU eviction);
    #: 0 = unbounded.  Ignored when ``cache_dir`` is unset.
    cache_max_mb: int = 512

    def scaled(self, **overrides: object) -> "RepairConfig":
        """A copy with some fields replaced (for laptop-scale runs)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Canonical construction paths
    # ------------------------------------------------------------------

    def validate(self, source: str = "config") -> "RepairConfig":
        """Range-check every field; raises :class:`ConfigError`.

        Returns ``self`` so construction sites can chain it.  Plain
        dataclass construction stays unvalidated (tests deliberately
        build extreme configs); every ``from_*`` classmethod validates.
        """

        def fail(message: str) -> None:
            raise ConfigError(f"{source}: {message}")

        if self.population_size < 1:
            fail(f"population_size must be >= 1 (got {self.population_size})")
        if self.max_generations < 0:
            fail(f"max_generations must be >= 0 (got {self.max_generations})")
        for name in ("rt_threshold", "mut_threshold", "delete_threshold",
                     "insert_threshold", "elitism_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                fail(f"{name} must be within [0, 1] (got {value})")
        if self.tournament_size < 1:
            fail(f"tournament_size must be >= 1 (got {self.tournament_size})")
        if self.phi < 0:
            fail(f"phi must be >= 0 (got {self.phi})")
        if self.max_wall_seconds <= 0:
            fail(f"max_wall_seconds must be > 0 (got {self.max_wall_seconds})")
        if self.max_fitness_evals is not None and self.max_fitness_evals < 1:
            fail(f"max_fitness_evals must be >= 1 or unset (got {self.max_fitness_evals})")
        if self.max_sim_time < 1:
            fail(f"max_sim_time must be >= 1 (got {self.max_sim_time})")
        if self.max_sim_steps < 1:
            fail(f"max_sim_steps must be >= 1 (got {self.max_sim_steps})")
        if self.minimize_budget < 0:
            fail(f"minimize_budget must be >= 0 (got {self.minimize_budget})")
        if self.workers < 1:
            fail(f"workers must be >= 1 (got {self.workers})")
        if self.backend not in BACKEND_NAMES:
            fail(
                f"backend must be one of {', '.join(BACKEND_NAMES)} "
                f"(got {self.backend!r})"
            )
        if self.eval_chunk_size < 1:
            fail(f"eval_chunk_size must be >= 1 (got {self.eval_chunk_size})")
        if self.eval_deadline_seconds < 0:
            fail(
                "eval_deadline_seconds must be >= 0 "
                f"(got {self.eval_deadline_seconds})"
            )
        if self.eval_max_retries < 0:
            fail(f"eval_max_retries must be >= 0 (got {self.eval_max_retries})")
        if self.worker_mem_mb < 0:
            fail(f"worker_mem_mb must be >= 0 (got {self.worker_mem_mb})")
        if self.cache_max_mb < 0:
            fail(f"cache_max_mb must be >= 0 (got {self.cache_max_mb})")
        return self

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[str, object],
        *,
        base: "RepairConfig | None" = None,
        source: str = "config",
    ) -> "RepairConfig":
        """Build a validated config from a string-keyed mapping.

        Values may be strings (INI/CLI style) or already-typed objects;
        they are coerced to the field's declared type.  Unknown keys fail
        fast with the offending key named, so a typo like
        ``poplation_size`` cannot silently run a 5000-candidate search.
        """
        base = base if base is not None else cls()
        overrides: dict[str, object] = {}
        for key, raw in mapping.items():
            kind = _FIELD_KINDS.get(key)
            if kind is None:
                raise ConfigError(
                    f"{source}: unknown config key {key!r} "
                    f"(valid keys: {', '.join(sorted(_FIELD_KINDS))})"
                )
            try:
                overrides[key] = _coerce(raw, kind)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
        return base.scaled(**overrides).validate(source)

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        *,
        base: "RepairConfig | None" = None,
        section: str = "gp",
    ) -> "tuple[RepairConfig, tuple[int, ...] | None]":
        """Load the ``[gp]`` section of an artifact-style ``repair.conf``.

        Returns ``(config, seeds)`` where ``seeds`` is the parsed
        ``seeds = 0,1,2`` entry, or ``None`` when the file does not set
        one (callers keep their own default).  A missing section yields
        the base config unchanged.  Raises :class:`ConfigError` for
        unknown keys or bad values, an empty ``seeds`` list included.
        """
        path = Path(path)
        ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not ini.read(path):
            raise ConfigError(f"cannot read config file {path}")
        base = base if base is not None else cls()
        if not ini.has_section(section):
            return base, None
        mapping = dict(ini[section])
        seeds: tuple[int, ...] | None = None
        raw_seeds = mapping.pop("seeds", None)
        if raw_seeds is not None:
            try:
                seeds = tuple(int(s) for s in str(raw_seeds).split(",") if s.strip())
            except ValueError as exc:
                raise ConfigError(f"{path} [{section}]: bad seeds list: {exc}") from exc
            if not seeds:
                raise ConfigError(f"{path} [{section}]: at least one seed is required")
        config = cls.from_mapping(mapping, base=base, source=f"{path} [{section}]")
        return config, seeds

    @classmethod
    def from_cli_args(
        cls,
        args: object,
        *,
        base: "RepairConfig | None" = None,
        source: str = "command line",
    ) -> "RepairConfig":
        """Apply recognised CLI flags on top of ``base`` and validate.

        ``args`` is an ``argparse.Namespace`` (or any object/mapping with
        the attributes).  Recognised names are every config field plus
        the CLI spellings ``population`` (→ ``population_size``) and
        ``budget`` (→ ``max_wall_seconds``); ``None`` values — flags the
        user did not pass — are skipped, and ``workers`` is clamped to a
        minimum of 1 (matching the historical CLI behaviour).
        """
        base = base if base is not None else cls()
        values: Mapping[str, object]
        if isinstance(args, Mapping):
            values = args
        else:
            values = vars(args)
        overrides: dict[str, object] = {}
        for name, field_name in _CLI_ALIASES.items():
            if name in values and values[name] is not None:
                overrides[field_name] = values[name]
        if "workers" in overrides:
            overrides["workers"] = max(1, int(overrides["workers"]))  # type: ignore[arg-type]
        return cls.from_mapping(overrides, base=base, source=source)


#: Field name → coercion kind, derived from the dataclass declaration
#: (annotations are strings because of ``from __future__ import annotations``).
_FIELD_KINDS: dict[str, str] = {
    f.name: str(f.type) for f in dataclasses.fields(RepairConfig)
}

#: CLI flag name → config field (identity for real field names).
_CLI_ALIASES: dict[str, str] = {name: name for name in _FIELD_KINDS}
_CLI_ALIASES.update({"population": "population_size", "budget": "max_wall_seconds"})

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _coerce(raw: object, kind: str) -> object:
    """Coerce one raw (possibly string) value to a field's declared type."""
    if kind == "int | None":
        if raw is None or (isinstance(raw, str) and raw.strip().lower() in ("", "none")):
            return None
        return int(str(raw)) if isinstance(raw, str) else int(raw)  # type: ignore[arg-type]
    if kind == "bool":
        if isinstance(raw, bool):
            return raw
        word = str(raw).strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "int":
        if isinstance(raw, bool):
            raise ValueError(f"expected an integer, got {raw!r}")
        return int(str(raw)) if isinstance(raw, str) else int(raw)  # type: ignore[arg-type]
    if kind == "float":
        return float(str(raw)) if isinstance(raw, str) else float(raw)  # type: ignore[arg-type]
    if kind == "str":
        return str(raw)
    raise ValueError(f"unsupported field type {kind!r}")  # pragma: no cover


#: A small configuration suitable for unit tests and CI: the GP dynamics
#: are identical, only budgets shrink.
TEST_CONFIG = RepairConfig(
    population_size=24,
    max_generations=6,
    max_wall_seconds=120.0,
    max_fitness_evals=600,
    max_sim_time=200_000,
    max_sim_steps=400_000,
    minimize_budget=64,
)
