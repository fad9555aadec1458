"""Host speed gauge: scales host times to one reference host speed.

The benchmark runs on a few CPUs of a shared host.  Other tenants' load
changes the speed of each CPU, by up to 1.6x within seconds, and the
guest kernel cannot see it: a fixed loop's CPU time moves with its wall
time.  So ``run.py`` runs a :class:`Gauge` beside every workload process.
Every ``PERIOD_S`` the gauge thread pins itself to the next CPU the
benchmark may use and times :func:`reference_work` in its own CPU time,
which excludes time spent waiting for a CPU; the sample is the speed of
that CPU at that moment.

A host time measured over ``[start, end]`` is then multiplied by
:meth:`Gauge.scale`: ``REF_S`` over the mean across CPUs of each CPU's
median sample within ``WINDOW_S`` of the interval.  Timestamps are
``time.perf_counter()``, which on Linux reads CLOCK_MONOTONIC and so
agrees across processes.  Each sample takes a few ms of one CPU, so the
gauge slows the workload by a few percent, the same on every run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: Seconds between samples.
PERIOD_S = 0.05

#: Seconds of samples taken on each side of a timed interval.
WINDOW_S = 1.5

#: Seconds the reference work takes at the reference speed: a scaled
#: time reads as if every sample nearby had taken REF_S.
REF_S = 0.002


class _Node:
    __slots__ = ("index", "name", "kids")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.kids: list[_Node] = []


def reference_work() -> int:
    """Fixed pure-Python work: allocate a tree, index it, sort, join.

    It uses the interpreter the way the repair code does (objects,
    attributes, dicts, lists, strings) and no code of the package, so no
    change to the package moves it.
    """
    nodes: list[_Node] = []
    by_name: dict[str, _Node] = {}
    for index in range(2000):
        node = _Node(index, str(index))
        nodes.append(node)
        by_name[node.name] = node
        if index:
            nodes[index // 2].kids.append(node)
    total = 0
    for name in sorted(by_name, key=len):
        node = by_name[name]
        total += len(node.kids) + node.index % 3
    return total + len("".join(node.name for node in nodes[:200]))


class Gauge:
    """Samples each CPU's speed on a thread of its own (module docstring).

    ``samples`` holds ``(host time, CPU, reference CPU seconds)``.
    """

    def __init__(self, cpus: list[int] | None = None) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if cpus is None else list(cpus)
        self.samples: list[tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="gauge", daemon=True)

    def __enter__(self) -> Gauge:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        turn = 0
        while not self._stop.is_set():
            cpu = self.cpus[turn % len(self.cpus)]
            turn += 1
            os.sched_setaffinity(0, {cpu})  # this thread only
            started = time.thread_time()
            reference_work()
            self.samples.append((time.perf_counter(), cpu, time.thread_time() - started))
            self._stop.wait(PERIOD_S)

    def ref_s(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """Mean over CPUs of each CPU's median sample in ``[start, end]``.

        The window widens until every CPU has a sample in it.
        """
        samples = sorted(self.samples)
        if not samples:
            raise RuntimeError("the gauge took no sample")
        times = [sample[0] for sample in samples]
        widen = 0.0
        while True:
            low = bisect.bisect_left(times, start - widen)
            high = bisect.bisect_right(times, end + widen)
            per_cpu: dict[int, list[float]] = {}
            for _, cpu, seconds in samples[low:high]:
                per_cpu.setdefault(cpu, []).append(seconds)
            if len(per_cpu) == len({sample[1] for sample in samples}):
                return statistics.fmean(statistics.median(v) for v in per_cpu.values())
            widen = max(2.0 * widen, WINDOW_S)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a host time measured over ``[start, end]`` to the
        reference speed."""
        return REF_S / self.ref_s(start - WINDOW_S, end + WINDOW_S)
