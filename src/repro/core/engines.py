"""The repair-engine registry.

``repro.api`` and the service daemon are *engine-neutral*: every repair
entry point takes ``engine: str = "cirfix"`` and resolves it here, so a
second repair engine (e.g. the rtl-repair-style template synthesiser in
:mod:`repro.synth`) plugs in by registering a runner — no facade, CLI,
or protocol change required.

A runner is a callable with the signature::

    runner(problem, config, seeds, *,
           backend=None, observers=None, cancel=None) -> RepairOutcome

mirroring :func:`repro.core.repair.repair` (which is the built-in
``"cirfix"`` runner).  Runners must honour the package-wide contracts:
same seed → bit-identical outcome; observers never influence the search;
``cancel`` polled cooperatively.  Determinism is also what crash
recovery rests on: the service daemon recovers a job by running the
same request again, warm out of the persistent eval cache.

Built-ins (registered lazily to avoid import cycles):

- ``cirfix`` — genetic-programming search (paper Algorithm 1);
- ``synth`` — template enumeration + brute-force literal solving
  (:mod:`repro.synth`, rtl-repair style);
- ``race`` — escalation: runs ``synth`` first and ``cirfix`` only when
  synth finds no plausible repair (:mod:`repro.synth.race`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import RepairObserver
    from .backend import EvaluationBackend
    from .config import RepairConfig
    from .repair import RepairOutcome, RepairProblem

#: The engine every entry point defaults to.
DEFAULT_ENGINE = "cirfix"


class EngineRunner(Protocol):
    """The callable contract a registered repair engine satisfies."""

    def __call__(
        self,
        problem: "RepairProblem",
        config: "RepairConfig | None" = None,
        seeds: tuple[int, ...] = (0,),
        backend: "EvaluationBackend | None" = None,
        observers: "Sequence[RepairObserver] | None" = None,
        cancel: Callable[[], bool] | None = None,
    ) -> "RepairOutcome":
        """Run trials on ``problem`` and return the chosen outcome."""
        ...  # pragma: no cover - protocol


_REGISTRY: dict[str, EngineRunner] = {}
_DESCRIPTIONS: dict[str, str] = {}


def register_engine(name: str, runner: EngineRunner, description: str = "") -> None:
    """Register (or replace) the runner behind an engine name.

    ``description`` is the one-line summary ``repro engines`` prints;
    re-registration (latest wins) replaces both runner and description.
    """
    if not name or not name.replace("_", "").replace("-", "").isalnum():
        raise ValueError(f"bad engine name {name!r}")
    _REGISTRY[name] = runner
    _DESCRIPTIONS[name] = description


def engine_names() -> tuple[str, ...]:
    """The registered engine names, sorted (for messages and --help)."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def engine_descriptions() -> dict[str, str]:
    """name → one-line description for every registered engine, sorted."""
    _ensure_builtin()
    return {name: _DESCRIPTIONS.get(name, "") for name in sorted(_REGISTRY)}


def get_engine(name: str) -> EngineRunner:
    """Resolve an engine name to its runner; raises ``ValueError``."""
    _ensure_builtin()
    runner = _REGISTRY.get(name)
    if runner is None:
        raise ValueError(
            f"unknown repair engine {name!r} "
            f"(registered: {', '.join(sorted(_REGISTRY))})"
        )
    return runner


def _ensure_builtin() -> None:
    """Lazily register the built-in runners (avoids a hard cycle)."""
    if DEFAULT_ENGINE not in _REGISTRY:
        from .repair import repair

        register_engine(
            DEFAULT_ENGINE,
            repair,
            "genetic-programming search over repair patches (paper Algorithm 1)",
        )
    if "synth" not in _REGISTRY:
        from ..synth.engine import synth_repair

        register_engine(
            "synth",
            synth_repair,
            "template enumeration solved against the testbench trace (rtl-repair style)",
        )
    if "race" not in _REGISTRY:
        from ..synth.race import race_repair

        register_engine(
            "race",
            race_repair,
            "escalation: synth first, then cirfix when synth finds no plausible repair",
        )
