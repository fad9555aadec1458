"""Shared test configuration."""

import pytest
from hypothesis import HealthCheck, settings

from repro.sim.simulator import Simulator

# One profile for the whole suite: generous deadlines (simulations inside
# property tests are slow on shared CI boxes), deterministic derandomize
# left off so new counterexamples can still surface locally.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def count_simulations(monkeypatch):
    """Call it to start counting the simulations this process runs.

    Returns the list each ``Simulator.run`` call appends its simulator's
    class name to: every in-process simulation, compiled ones included,
    goes through that method.  Forked pool workers append to their own
    copy, so the list sees only this process.
    """

    def start() -> list[str]:
        runs: list[str] = []
        real_run = Simulator.run

        def counting_run(sim, *args, **kwargs):
            runs.append(type(sim).__name__)
            return real_run(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        return runs

    return start
