"""The simulation kernel keeps every event.

Replays the corpus of :mod:`tests.sim.kernel_corpus` on both engines and
compares each run with the committed fixture: the same runs (so the GP
trials still score the same candidates), and per run and engine the same
counters, end time and digest of output, errors and trace bits.
"""

import json

from .kernel_corpus import FIXTURE, replay


def test_kernel_keeps_every_event():
    expected = json.loads(FIXTURE.read_text())
    actual = replay()
    assert sorted(actual) == sorted(expected), "the corpus changed its runs"
    moved = [
        f"{run_id} [{engine}]: {expected[run_id][engine]} -> {record}"
        for run_id, engines in sorted(actual.items())
        for engine, record in sorted(engines.items())
        if record != expected[run_id].get(engine)
    ]
    assert not moved, f"{len(moved)} run(s) moved:\n" + "\n".join(moved[:20])
