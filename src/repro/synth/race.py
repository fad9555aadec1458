"""Escalating repair (``engine="race"``): synth first, GP when synth fails.

The template synthesiser repairs what its catalog can express at a
fraction of GP's cost; GP (paper Algorithm 1) also re-grows deleted
statements and other fixes no template inverts.  :func:`race_repair`
tries them in that fixed order on one shared evaluation backend, so no
verdict has to choose between them and the outcome is deterministic by
construction.  The registered name stays ``race`` because stored
requests, journaled daemon jobs and ``--engine race`` callers resolve it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.backend import EvaluationBackend
from ..core.config import RepairConfig
from ..core.harness import RepairOutcome, RepairProblem, best_outcome, shared_backend
from ..core.repair import repair
from ..obs.observer import RepairObserver
from .engine import synth_repair


def race_repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> RepairOutcome:
    """The registered ``"race"`` runner: escalate from synth to GP.

    Runs :func:`~repro.synth.engine.synth_repair` and returns its outcome
    when it is plausible or when ``cancel()`` has fired.  Otherwise runs
    :func:`~repro.core.repair.repair` on the same backend, seeds and
    observers with the full ``config`` budget, so the GP leg is exactly a
    standalone ``repair()``, and returns
    :func:`~repro.core.harness.best_outcome` of ``[gp, synth]``: GP's
    outcome unless synth scored strictly higher.
    """
    config = config or RepairConfig()
    with shared_backend(problem, config, backend) as backend:
        legs = dict(backend=backend, observers=observers, cancel=cancel)
        synth = synth_repair(problem, config, seeds, **legs)
        if synth.plausible or (cancel is not None and cancel()):
            return synth
        gp = repair(problem, config, seeds, **legs)
    return best_outcome([gp, synth])


__all__ = ["race_repair"]
