"""Open-loop arrival generator: requests are due on a fixed schedule.

Request ``k`` of a rung is due at ``t0 + k / rate`` whatever happened to
earlier requests, so a stall in the system (or in the generator itself)
shows up in the latency of every request due while it lasted.  Latency is
timed from the due time, not from the moment ``submit`` was called, and
the generator reports how late it ran.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple


@dataclass
class Rung:
    """What one rate rung observed."""

    rate: float
    sent: int = 0
    completed: int = 0
    failed: int = 0
    #: Seconds from each completed request's due time to its completion.
    latencies: List[float] = field(default_factory=list)
    #: (due time, completion time) of each completed request.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: Largest delay between a due time and the actual ``submit`` call.
    lag_max: float = 0.0
    #: Seconds from the first due time to the last completion.
    elapsed: float = 0.0
    #: True when the backlog passed its bound and the rung stopped early.
    overloaded: bool = False
    #: Schedule position -> response, for the correctness gates.
    responses: Dict[int, Any] = field(default_factory=dict)

    def latencies_with_failures(self) -> List[float]:
        """Latencies where every failed or unsent request counts as inf."""
        missing = self.sent - self.completed
        return self.latencies + [math.inf] * missing

    @property
    def achieved_rate(self) -> float:
        """Completions per second over the rung's elapsed time."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0


def run_rung(
    submit: Callable[[Any], Any],
    requests: Sequence[Any],
    rate: float,
    count: int,
    *,
    max_backlog: int,
    drain_timeout: float = 30.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Rung:
    """Offer ``count`` requests at ``rate`` per second (cycling the list).

    ``submit(request)`` must return a future (``add_done_callback`` and
    ``exception``).  The rung stops sending once more than
    ``max_backlog`` requests are outstanding - the backlog is growing, so
    the rung has failed and sending more would only lengthen the run.
    """
    rung = Rung(rate=rate)
    done_at: Dict[int, float] = {}
    lock = threading.Lock()
    all_done = threading.Event()
    outstanding = [0]
    sending = [True]

    def on_done(index: int, future: Any) -> None:
        now = clock()
        with lock:
            if future.exception() is None:
                done_at[index] = now
                rung.responses[index] = future.result()
            else:
                rung.failed += 1
            outstanding[0] -= 1
            if not sending[0] and outstanding[0] == 0:
                all_done.set()

    t0 = clock()
    due = t0
    for index in range(count):
        due = t0 + index / rate
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        rung.lag_max = max(rung.lag_max, clock() - due)
        with lock:
            if outstanding[0] > max_backlog:
                rung.overloaded = True
                break
            outstanding[0] += 1
        rung.sent += 1
        try:
            future = submit(requests[index % len(requests)])
        except Exception:
            with lock:
                outstanding[0] -= 1
                rung.failed += 1
            continue
        future.add_done_callback(lambda f, i=index: on_done(i, f))
    with lock:
        sending[0] = False
        if outstanding[0] == 0:
            all_done.set()
    if not all_done.wait(timeout=drain_timeout):
        rung.overloaded = True
    with lock:
        for index, finished in done_at.items():
            due = t0 + index / rate
            rung.latencies.append(finished - due)
            rung.intervals.append((due, finished))
        rung.completed = len(done_at)
        last = max(done_at.values(), default=t0)
    rung.elapsed = last - t0
    return rung
