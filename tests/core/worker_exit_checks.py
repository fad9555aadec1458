"""No evaluation worker outlives its interpreter.

Pool workers outlive the pool that borrowed them (they park in the
process-wide idle set), so nothing but the interpreter's own end stops
them.  A child interpreter builds a supervised pool on counter_reset,
scores a candidate, closes the pool (parking its workers) and records
the worker PIDs.  Then, by mode, it

- ``exit``: exits normally; the interpreter-exit hook shuts the parked
  workers down;
- ``kill-parked``: SIGKILLs itself while its workers are parked; each
  worker reads EOF on its pipe and exits;
- ``kill-mid-batch``: borrows the parked workers for a long batch and
  SIGKILLs itself from a timer thread mid-batch; each worker finishes
  its task, finds the pipe gone and exits.

:func:`check` runs one child and waits a bounded time for every recorded
worker PID to be gone; it kills any survivor, so a failed check leaves
nothing running.  ``tests/core/test_backend.py`` runs every mode, and so
does the "no worker outlives its interpreter" step of
``scripts/check_all.sh``::

    PYTHONPATH=src python -m tests.core.worker_exit_checks
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

MODES = ("exit", "kill-parked", "kill-mid-batch")

#: Candidates in the mid-batch child's batch: seconds of work for two
#: workers, against a kill after KILL_AFTER_SECONDS.
BATCH_SIZE = 2000
KILL_AFTER_SECONDS = 0.3

#: Bounded waits: for the child to finish, then for its workers to go.
CHILD_TIMEOUT_SECONDS = 60.0
WORKER_TIMEOUT_SECONDS = 10.0


def child(mode: str, record: Path) -> None:
    """The child interpreter: park two workers, then end as ``mode`` says."""
    from repro.benchsuite import load_scenario
    from repro.core import TEST_CONFIG
    from repro.core.backend import ProcessPoolBackend
    from repro.hdl import generate

    problem = load_scenario("counter_reset").problem()
    text = generate(problem.design)
    pids: set[int] = set()

    def borrow() -> ProcessPoolBackend:
        pool = ProcessPoolBackend(problem, TEST_CONFIG, workers=2)
        pids.update(worker.process.pid for worker in pool._workers)
        record.write_text(" ".join(map(str, sorted(pids))))
        return pool

    with borrow() as pool:
        (result,) = pool.evaluate_batch([text])
        assert result.compiled
    if mode == "kill-parked":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "kill-mid-batch":
        batch = [f"{text}// {i}\n" for i in range(BATCH_SIZE)]
        with borrow() as pool:
            threading.Timer(
                KILL_AFTER_SECONDS, os.kill, (os.getpid(), signal.SIGKILL)
            ).start()
            pool.evaluate_batch(batch)
        sys.exit("the batch finished before the kill")


def _gone(pid: int) -> bool:
    """True when ``pid`` has exited (a zombie nobody reaped counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # pragma: no cover - PID reused by another user
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def check(mode: str) -> list[str]:
    """Run one child in ``mode``; the problems found (empty = passed)."""
    expected = 0 if mode == "exit" else -signal.SIGKILL
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "pids"
        log = Path(tmp) / "stderr"
        # No pipes: a surviving worker would hold them open.
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "tests.core.worker_exit_checks", mode, str(record)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            try:
                code = proc.wait(CHILD_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
                problems = [f"{mode}: the child did not finish in {CHILD_TIMEOUT_SECONDS:.0f} s"]
            else:
                problems = []
        if code != expected and not problems:
            tail = log.read_text(errors="replace")[-2000:]
            problems.append(f"{mode}: the child exited {code}, expected {expected}\n{tail}")
        pids = [int(pid) for pid in record.read_text().split()] if record.exists() else []
    if not pids:
        problems.append(f"{mode}: the child recorded no worker")
    deadline = time.monotonic() + WORKER_TIMEOUT_SECONDS
    alive = pids
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if not _gone(pid)]
    for pid in alive:
        problems.append(
            f"{mode}: worker {pid} still running {WORKER_TIMEOUT_SECONDS:.0f} s "
            f"after its interpreter ended"
        )
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:  # pragma: no cover - exited meanwhile
            pass
    return problems


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] in MODES:
        child(argv[0], Path(argv[1]))
        return 0
    problems = [problem for mode in argv or MODES for problem in check(mode)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"no worker outlived its interpreter: {', '.join(argv or MODES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
