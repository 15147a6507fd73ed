"""The yardstick: fixed reference work timed alongside the operations.

The host's speed is not steady: in one process the same pass over a suite
took 0.34-0.54 s for 45 s and then 0.56-0.63 s for the next 30 s.  No run
length the benchmark can afford averages such stretches out, so the
end-to-end costs are read in yardstick units instead of seconds.

One unit is one parse and full reachability exploration of a fixed net
(``RING``) by the reference in ``reference.py``: code apart from the package
that does the same kind of work (JSON, tuples, sets, a breadth-first
search).  A wall-clock timer (``SIGALRM``) ticks every ``nominal / SHARE``
seconds; a tick that lands inside an operation call runs one unit there,
in the single thread, and the unit's seconds are taken out of the call's.
So units sample the host's speed at the moments each operation ran, in
proportion to its time, also inside a call of several seconds, and each
operation is read against the units that ran inside its own calls.  No
package code runs inside a unit, so every change to the package moves a
cost in units in full.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from typing import Callable, TypeVar

from reference import RefNet

#: Yardstick seconds per second of operation time, at set-up speed.
SHARE = 0.15
T = TypeVar("T")


def _ring(places: int = 6, tokens: int = 4) -> str:
    """Tokens moving one way round a ring of places: every spread of them
    is reachable, 126 markings for 4 tokens on 6 places."""
    ids = [f"p{i}" for i in range(places)]
    return json.dumps({
        "places": [{"id": p, "initial_tokens": tokens if i == 0 else 0}
                   for i, p in enumerate(ids)],
        "transitions": [{"id": f"t{i}", "label": f"a{i}", "level": "low"}
                        for i in range(places)],
        "arcs": [arc for i, p in enumerate(ids)
                 for arc in ({"from": p, "to": f"t{i}"},
                             {"from": f"t{i}", "to": ids[(i + 1) % places]})],
    })


RING = _ring()
RING_MARKINGS = 126


def unit() -> None:
    """One yardstick unit."""
    RefNet(RING).reachable()


class Yardstick:
    """Runs units on timer ticks inside operation calls, and times both."""

    def __init__(self) -> None:
        if len(RefNet(RING).reachable()) != RING_MARKINGS:
            raise RuntimeError("the yardstick's net reaches another number of markings")
        times = []
        for _ in range(50):
            start = time.perf_counter()
            unit()
            times.append(time.perf_counter() - start)
        #: Seconds of one unit at set-up; it sets only how often units run.
        self.nominal = statistics.median(times)
        self._inside = False
        self._spent = 0.0
        self._units = 0
        self._total = 0.0

    def _tick(self, signum, frame) -> None:
        if self._inside:
            # A collection that a unit's allocations would set off walks the
            # operation's live objects; it belongs to the operation.  The
            # unit frees what it allocates, so the operation's next
            # collection comes about when it would have without the unit.
            collecting = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                unit()
                spent = time.perf_counter() - start
            finally:
                if collecting:
                    gc.enable()
            self._spent += spent
            self._total += spent
            self._units += 1

    def clock(self) -> float:
        """``time.perf_counter`` without the seconds of every unit run so far."""
        return time.perf_counter() - self._total

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        interval = self.nominal / SHARE
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, call: Callable[[], T]) -> tuple[T, float, float, int]:
        """Run ``call``; returns its outcome, its seconds without the units
        that ran inside it, and those units' seconds and number."""
        self._spent, self._units = 0.0, 0
        self._inside = True
        start = time.perf_counter()
        try:
            outcome = call()
        finally:
            self._inside = False
            took = time.perf_counter() - start
        return outcome, took - self._spent, self._spent, self._units
