"""Timing statistics and span accounting (pure Python, no repo imports).

* :func:`tail` applies the benchmark's percentile rule: report the highest
  of p99/p95/p90/p75/p50 that still has at least ten samples beyond it,
  together with the sample count.
* :class:`SpanRecorder` keeps spans (name, start, end, parent, request id)
  in memory; :func:`self_times` subtracts the union of each span's children
  from its duration and :func:`attribute_wall` splits every instant of a
  window among the innermost spans open at that instant, so its rows plus
  the unattributed remainder sum to the window exactly.
* :class:`StealClock` turns ``perf_counter`` stamps into busy time (wall
  minus the hypervisor's steal of the pinned CPU) and
  :func:`slice_figures` computes per-slice throughput and latency on it.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may report, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Tail:
    """The highest percentile the sample supports."""

    pct: float
    value: float
    samples: int


def tail(samples: Sequence[float]) -> Tail:
    """Highest percentile in :data:`TAIL_PERCENTILES` with >= 10 beyond it.

    ``n * (1 - p/100)`` samples lie beyond the p-th percentile, so p99
    needs 1000 samples and p50 twenty.  Raises when even p50 is
    unsupported, so a too-short run fails instead of reporting a max.
    """
    count = len(samples)
    for pct in TAIL_PERCENTILES:
        if count * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            return Tail(pct, percentile(samples, pct), count)
    raise ValueError(
        f"{count} samples support no percentile with {MIN_BEYOND} beyond it"
    )


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def time_slices(events: Iterable[Tuple[float, float]], start: float,
                end: float, parts: int) -> List[List[float]]:
    """Split ``(time, value)`` events into ``parts`` equal slices of a window.

    Slice ``k`` holds the values whose time falls in
    ``[start + k*w, start + (k+1)*w)`` with ``w = (end - start) / parts``;
    an event at ``end`` itself goes to the last slice.
    """
    width = (end - start) / parts
    slices: List[List[float]] = [[] for _ in range(parts)]
    for when, value in events:
        index = min(parts - 1, max(0, int((when - start) // width)))
        slices[index].append(value)
    return slices


# -- host steal ---------------------------------------------------------------

#: Seconds between two readings of the steal counter.
STEAL_PERIOD_S = 0.25


def cpu_steal_s(cpu: int, path: str = "/proc/stat") -> float:
    """Cumulative seconds the hypervisor kept ``cpu`` from running.

    The ``steal`` column of ``/proc/stat`` (in clock ticks).  Where the
    file or the column is missing the host reports no steal: 0.0.
    """
    label = f"cpu{cpu}"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == label:
                    if len(fields) < 9:
                        return 0.0
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return 0.0


class StealClock:
    """Maps ``perf_counter`` stamps to busy time: wall minus host steal.

    A daemon thread reads the steal counter of the one CPU the run is
    pinned to every :data:`STEAL_PERIOD_S`; :meth:`busy` subtracts the
    steal up to a stamp, interpolated linearly between readings.  The
    counter moves in 10 ms ticks, so single requests are not corrected
    one by one: the correction is the local steal rate.  A stretch never
    loses more than its own length, so :meth:`busy` is non-decreasing.
    """

    def __init__(self, read: Callable[[], float],
                 period: float = STEAL_PERIOD_S,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.read = read
        self.period = period
        self.clock = clock
        #: (stamp, steal so far) readings; steal starts at 0.
        self.readings: List[Tuple[float, float]] = []
        self._first = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        """Take one reading now."""
        now, steal = self.clock(), self.read()
        if not self.readings:
            self._first = steal
            self.readings.append((now, 0.0))
            return
        last_time, last_steal = self.readings[-1]
        gained = min(max(0.0, steal - self._first - last_steal),
                     now - last_time)
        self.readings.append((now, last_steal + gained))

    def start(self) -> "StealClock":
        self.sample()

        def loop() -> None:
            while not self._stop.wait(self.period):
                self.sample()

        self._thread = threading.Thread(target=loop, name="perfbench-steal",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.sample()

    def stolen(self, stamp: float) -> float:
        """Steal between the first reading and ``stamp``."""
        readings = self.readings
        if not readings or stamp <= readings[0][0]:
            return 0.0
        if stamp >= readings[-1][0]:
            return readings[-1][1]
        index = bisect.bisect_right(readings, (stamp, math.inf))
        (t0, s0), (t1, s1) = readings[index - 1], readings[index]
        return s0 + (s1 - s0) * (stamp - t0) / (t1 - t0)

    def busy(self, stamp: float) -> float:
        return stamp - self.stolen(stamp)

    @property
    def total(self) -> float:
        return self.readings[-1][1] if self.readings else 0.0


def slice_figures(window: Tuple[float, float],
                  samples: Sequence[Tuple[float, float]],
                  completions: Sequence[float], parts: int,
                  busy: Callable[[float], float] = lambda stamp: stamp,
                  rate: Optional[float] = None) -> Tuple[List[dict], List[float]]:
    """Throughput and latency percentiles per slice, on the ``busy`` clock.

    ``samples`` are the ``(start, end)`` stamps of each latency sample and
    ``completions`` the stamps of each unit of throughput.  The window is
    cut into ``parts`` equal slices of busy time; a sample belongs to the
    slice its end falls in.  ``rate``, when given, is reported as every
    slice's throughput instead of completions per busy second.  Returns
    the slices and every sample's busy latency.
    """
    start, end = busy(window[0]), busy(window[1])
    width = (end - start) / parts
    timed = [(busy(stop), busy(stop) - busy(begin)) for begin, stop in samples]
    counts = [len(part) for part in time_slices(
        ((busy(stamp), None) for stamp in completions), start, end, parts)]
    slices = [
        {"throughput": count / width if rate is None else rate,
         "latency_p50_ms": 1e3 * percentile(latencies, 50),
         "latency_p95_ms": 1e3 * percentile(latencies, 95)}
        for count, latencies in zip(counts,
                                    time_slices(timed, start, end, parts))
    ]
    return slices, [latency for _, latency in timed]


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``parent`` indexes the recorder's span list."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    thread: int


class SpanRecorder:
    """Thread-aware in-memory span store, cheap enough for per-sweep spans.

    Each thread appends to its own list and keeps its own stack of open
    spans, so a span's parent is the innermost span open *in the same
    thread* when it began, and recording takes no lock.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._threads: List[Tuple[int, list]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> Tuple[list, list]:
        try:
            return self._local.state
        except AttributeError:
            spans: list = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
            self._local.state = (spans, [])
            return self._local.state

    def begin(self, name: str, request_id: Optional[str] = None) -> list:
        """Open a span; returns its record ``[name, start, end, parent,
        request_id]`` for :meth:`end`."""
        spans, stack = self._state()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[4]
        record = [name, self.clock(), math.nan, parent, request_id]
        spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        """Close a span opened in this thread."""
        record[2] = self.clock()
        stack = self._local.state[1]
        if stack and stack[-1] is record:
            stack.pop()
        else:
            stack.remove(record)

    def snapshot(self) -> List[Span]:
        """Every span, threads in first-use order; parents become indices
        and spans still open end at the current time."""
        now = self.clock()
        with self._lock:
            threads = list(self._threads)
        index: Dict[int, int] = {}
        spans: List[Span] = []
        for thread, records in threads:
            for record in list(records):
                index[id(record)] = len(spans)
                name, start, end, parent, request_id = record
                spans.append(Span(
                    name, start, now if math.isnan(end) else end,
                    None if parent is None else index[id(parent)],
                    request_id, thread,
                ))
        return spans


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: duration minus the union of child intervals.

    Children are clipped to their parent, and overlapping children (e.g.
    a scatter fanning out to threads that name the parent) count once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = _union_length(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, ())
            if min(e, span.end) > max(s, span.start)
        )
        totals[span.name] = totals.get(span.name, 0.0) + (
            span.end - span.start - covered
        )
    return totals


def attribute_wall(
    spans: Sequence[Span], start: float, end: float, layer_of
) -> Tuple[Dict[str, float], float]:
    """Split the window ``[start, end]`` among layers; returns (rows, rest).

    At every instant the innermost open spans (open spans none of whose
    children is open) share the instant equally; ``layer_of(name)`` maps a
    span name to its row.  Instants with no open span are the
    unattributed rest, so ``sum(rows) + rest == end - start``.
    """
    events: List[Tuple[float, int, int]] = []
    for index, span in enumerate(spans):
        s, e = max(span.start, start), min(span.end, end)
        if e > s:
            events.append((s, 1, index))
            events.append((e, 0, index))
    events.sort(key=lambda event: (event[0], event[1]))
    open_children: Dict[int, int] = {}
    open_spans: set = set()
    leaves: set = set()
    rows: Dict[str, float] = {}
    rest = 0.0
    clock = start
    for when, kind, index in events:
        if when > clock:
            width = when - clock
            if leaves:
                share = width / len(leaves)
                for leaf in leaves:
                    name = layer_of(spans[leaf].name)
                    rows[name] = rows.get(name, 0.0) + share
            else:
                rest += width
            clock = when
        parent = spans[index].parent
        parent_open = parent is not None and parent in open_spans
        if kind == 1:
            open_spans.add(index)
            leaves.add(index)
            if parent_open:
                open_children[parent] = open_children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            open_spans.discard(index)
            leaves.discard(index)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    if end > clock:
        rest += end - clock
    return rows, rest
