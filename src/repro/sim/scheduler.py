"""Stratified event scheduler (IEEE 1364 reference model, simplified).

Each simulation time slot processes four regions in order:

1. **active** — process resumptions, continuous-assignment updates;
2. **inactive** — ``#0``-delayed events, promoted when active drains;
3. **nba** — non-blocking assignment updates, promoted when active and
   inactive both drain (their execution may wake more active events);
4. **postponed** — read-only callbacks (``$monitor``, the CirFix trace
   recorder) run once the slot is otherwise quiet.

Future events live in a heap keyed by (time, insertion sequence) so
same-time events preserve scheduling order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

#: Region names accepted by :meth:`Scheduler.schedule_at`.
REGIONS = ("active", "inactive", "nba")


class SchedulerError(Exception):
    """Raised on scheduling misuse (negative delays, unknown regions)."""


class Scheduler:
    """The simulation event queue."""

    def __init__(self) -> None:
        self.time = 0
        #: The current slot's active region.  Signals and memories append
        #: the callbacks a change wakes to it directly.
        self.active: deque[Callable[[], None]] = deque()
        self._inactive: deque[Callable[[], None]] = deque()
        self._nba: deque[Callable[[], None]] = deque()
        self._postponed: list[Callable[[], None]] = []
        self._postponed_once: deque[Callable[[], None]] = deque()
        self._future: list[tuple[int, int, str, Callable[[], None]]] = []
        self._seq = 0
        self.finished = False
        #: Telemetry counters (repro.obs): callbacks executed in the
        #: active/NBA regions and time slots advanced.  Plain integer
        #: increments on the hot path — effectively free, always on.
        self.events_executed = 0
        self.slots_advanced = 0

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------

    def schedule_active(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` in the current slot's active region."""
        self.active.append(fn)

    def schedule_inactive(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` after the active region drains (``#0`` semantics)."""
        self._inactive.append(fn)

    def schedule_nba(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` in the current slot's NBA update region."""
        self._nba.append(fn)

    def add_postponed(self, fn: Callable[[], None]) -> None:
        """Register a read-only callback run at the end of every slot."""
        self._postponed.append(fn)

    def schedule_postponed_once(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once at the end of the current time slot."""
        self._postponed_once.append(fn)

    def schedule_at(self, delay: int, fn: Callable[[], None], region: str = "active") -> None:
        """Schedule ``fn`` to run ``delay`` ticks in the future."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        if region not in REGIONS:
            raise SchedulerError(f"unknown region {region!r}")
        if delay == 0:
            if region == "active":
                self.schedule_active(fn)
            elif region == "inactive":
                self.schedule_inactive(fn)
            else:
                self.schedule_nba(fn)
            return
        self._seq += 1
        heapq.heappush(self._future, (self.time + delay, self._seq, region, fn))

    def finish(self) -> None:
        """Terminate the simulation at the end of the current event."""
        self.finished = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _exhaust_slot(self) -> None:
        """Run active/inactive/nba regions until the slot is quiet."""
        active, inactive, nba = self.active, self._inactive, self._nba
        while not self.finished:
            if active:
                self.events_executed += 1
                active.popleft()()
            elif inactive:
                active.extend(inactive)
                inactive.clear()
            elif nba:
                # NBA updates execute as a batch; they may enqueue new
                # active events (processes sensitive to the updated nets).
                batch = list(nba)
                nba.clear()
                self.events_executed += len(batch)
                for fn in batch:
                    fn()
            else:
                break

    def run(self, max_time: int) -> int:
        """Run until ``$finish``, event exhaustion, or ``max_time``.

        Returns the simulation time at which execution stopped.
        """
        while not self.finished:
            self._exhaust_slot()
            if self.finished:
                break
            while self._postponed_once:
                self._postponed_once.popleft()()
            for fn in self._postponed:
                fn()
            if not self._future:
                break
            next_time = self._future[0][0]
            if next_time > max_time:
                break
            self.time = next_time
            self.slots_advanced += 1
            while self._future and self._future[0][0] == next_time:
                _, _, region, fn = heapq.heappop(self._future)
                if region == "active":
                    self.active.append(fn)
                elif region == "inactive":
                    self._inactive.append(fn)
                else:
                    self._nba.append(fn)
        return self.time
