"""Tests of the benchmark's own helpers (no repository code involved).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import threading
from types import SimpleNamespace

import pytest

from h3dbench import gates
from h3dbench.measure import (
    Span,
    SpanRecorder,
    StealClock,
    attribute_wall,
    cpu_steal_s,
    percentile,
    self_times,
    slice_figures,
    tail,
    time_slices,
)
from h3dbench.openloop import run_rung

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentile rule ------------------------------------------------------------


def test_tail_reports_p99_only_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    worst = tail(samples)
    assert (worst.pct, worst.value, worst.samples) == (99.0, 990.0, 1000)


def test_tail_falls_back_when_p99_has_fewer_than_ten_beyond():
    worst = tail([float(i) for i in range(1, 1000)])
    assert worst.pct == 95.0 and worst.samples == 999
    assert tail([1.0] * 20).pct == 50.0


def test_tail_refuses_samples_that_support_no_percentile():
    with pytest.raises(ValueError):
        tail([1.0] * 19)


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert percentile([1.0, 2.0], 100) == 2.0


def test_time_slices_split_the_window_evenly_and_keep_the_end():
    events = [(0.0, 1.0), (0.99, 2.0), (1.0, 3.0), (2.5, 4.0), (3.0, 5.0)]
    assert time_slices(events, 0.0, 3.0, 3) == [[1.0, 2.0], [3.0], [4.0, 5.0]]


# -- busy clock -------------------------------------------------------------------


def _steal_clock(readings):
    """A StealClock fed ``(stamp, cumulative steal)`` readings."""
    feed = iter(readings)
    current = [None]

    def clock():
        current[0] = next(feed)
        return current[0][0]

    steal = StealClock(lambda: current[0][1], clock=clock)
    for _ in readings:
        steal.sample()
    return steal


def test_steal_clock_interpolates_steal_between_readings():
    # The counter starts at 5 s; 0.5 s is stolen between t=1 and t=2.
    clock = _steal_clock([(0.0, 5.0), (1.0, 5.0), (2.0, 5.5), (3.0, 5.5)])
    assert clock.stolen(0.5) == 0.0
    assert clock.stolen(1.5) == pytest.approx(0.25)
    assert clock.busy(3.0) == pytest.approx(2.5)
    assert clock.busy(9.0) == pytest.approx(8.5)
    assert clock.total == pytest.approx(0.5)


def test_steal_clock_never_loses_more_than_the_elapsed_time():
    # Tick rounding can report more steal than time passed: capped, and
    # the rest is counted in the next stretch.
    clock = _steal_clock([(0.0, 0.0), (0.25, 0.26), (0.5, 0.26)])
    assert clock.stolen(0.25) == pytest.approx(0.25)
    assert clock.total == pytest.approx(0.26)
    stamps = [0.1 * k for k in range(6)]
    busy = [clock.busy(t) for t in stamps]
    assert busy == sorted(busy)


def test_cpu_steal_reads_the_steal_column_of_one_cpu(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  1 2 3 4 5 6 7 900 0 0\n"
                    "cpu0 1 2 3 4 5 6 7 400 0 0\n"
                    "cpu1 1 2 3 4 5 6 7 500 0 0\n")
    ticks = os.sysconf("SC_CLK_TCK")
    assert cpu_steal_s(1, str(stat)) == pytest.approx(500 / ticks)
    assert cpu_steal_s(7, str(stat)) == 0.0
    assert cpu_steal_s(0, str(tmp_path / "missing")) == 0.0


def test_slice_figures_count_busy_time_only():
    # Four 1 s requests; the host stole the whole second from 1 s to 2 s,
    # so the request that spanned it took 1 s of busy time, not 2.
    clock = _steal_clock([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (5.0, 1.0)])
    samples = [(0.0, 1.0), (1.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
    slices, latencies = slice_figures(
        (0.0, 5.0), samples, [end for _, end in samples], 1, busy=clock.busy)
    assert latencies == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert slices[0]["throughput"] == pytest.approx(1.0)
    assert slices[0]["latency_p95_ms"] == pytest.approx(1000.0)
    wall, _ = slice_figures((0.0, 5.0), samples, [e for _, e in samples], 1)
    assert wall[0]["throughput"] == pytest.approx(0.8)
    assert wall[0]["latency_p95_ms"] == pytest.approx(2000.0)


# -- spans ----------------------------------------------------------------------


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        _span("http.client", 0.0, 10.0),
        _span("wire.encode", 1.0, 4.0, parent=0),
        _span("wire.encode", 3.0, 6.0, parent=0),  # overlaps its sibling
        _span("vsa.fingerprint", 2.0, 3.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs["http.client"] == pytest.approx(5.0)  # 10 - |[1, 6]|
    assert selfs["wire.encode"] == pytest.approx(2.0 + 3.0)
    assert selfs["vsa.fingerprint"] == pytest.approx(1.0)


def test_wall_attribution_rows_plus_rest_sum_to_the_window():
    spans = [
        _span("http.client", 0.0, 10.0),
        _span("wire.encode", 1.0, 4.0, parent=0),
        _span("wire.encode", 3.0, 6.0, parent=0),
        _span("service.submit", 8.0, 11.0),  # another thread, overlapping
    ]
    rows, rest = attribute_wall(spans, 0.0, 12.0, lambda n: n.split(".")[0])
    assert rows["wire"] == pytest.approx(5.0)
    # [0,1) + [6,8) alone, [8,10) shared with service.submit.
    assert rows["http"] == pytest.approx(1.0 + 2.0 + 1.0)
    assert rows["service"] == pytest.approx(1.0 + 1.0)
    assert rest == pytest.approx(1.0)
    assert sum(rows.values()) + rest == pytest.approx(12.0)


def test_recorder_nests_per_thread():
    recorder = SpanRecorder()
    outer = recorder.begin("cluster.client.evaluate", request_id="r1")
    inner = recorder.begin("http.client.evaluate")

    def other():
        recorder.end(recorder.begin("service.submit"))

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.end(inner)
    recorder.end(outer)
    spans = recorder.snapshot()
    assert [span.name for span in spans] == [
        "cluster.client.evaluate", "http.client.evaluate", "service.submit"]
    assert spans[1].parent == 0 and spans[1].request_id == "r1"
    assert spans[2].parent is None and spans[2].thread != spans[0].thread


# -- open-loop timing -------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _DoneFuture:
    def __init__(self, value):
        self.value = value

    def add_done_callback(self, callback):
        callback(self)

    def exception(self):
        return None

    def result(self):
        return self.value


def test_open_loop_latency_counts_a_stall_against_later_requests():
    clock = _FakeClock()
    calls = []

    def submit(request):
        calls.append(request)
        if len(calls) == 5:  # the transport stalls once, for 100 ms
            clock.sleep(0.1)
        clock.sleep(0.001)
        return _DoneFuture(request)

    rung = run_rung(submit, list(range(40)), rate=200.0, count=40,
                    max_backlog=1000, clock=clock, sleep=clock.sleep)
    assert rung.completed == 40 and rung.failed == 0
    latency = dict(zip(sorted(rung.responses), rung.latencies))
    assert latency[3] == pytest.approx(0.001)
    # Request 5 was due 5 ms after request 4 but could only be sent once
    # the stall ended: timed from its due time, it shows the stall.
    assert latency[5] > 0.09
    assert latency[10] > 0.06
    assert rung.lag_max > 0.09


def test_open_loop_stops_when_the_backlog_grows():
    clock = _FakeClock()

    class Never:
        def add_done_callback(self, callback):
            pass

    rung = run_rung(lambda r: Never(), [0], rate=100.0, count=50,
                    max_backlog=5, drain_timeout=0.0, clock=clock,
                    sleep=clock.sleep)
    assert rung.overloaded and rung.sent == 6 and rung.completed == 0
    assert len(rung.latencies_with_failures()) == 6


# -- gates ------------------------------------------------------------------------


def _response(indices, iterations=7, outcome="converged"):
    return SimpleNamespace(result=SimpleNamespace(
        indices=indices, iterations=iterations,
        outcome=SimpleNamespace(value=outcome), correct=True))


def test_digest_gate_rejects_a_mismatch():
    gates.check_equal("digest", "abc", "abc")
    with pytest.raises(gates.GateError):
        gates.check_equal("digest", "abc", "abd")


def test_response_gate_rejects_one_wrong_factorization():
    reference = [_response((1, 2, 3)), _response((4, 5, 6))]
    served = {0: _response((1, 2, 3)), 3: _response((4, 5, 6))}
    gates.check_responses("w", reference, served)
    served[2] = _response((1, 2, 4))
    with pytest.raises(gates.GateError):
        gates.check_responses("w", reference, served)
    with pytest.raises(gates.GateError):
        gates.check_responses("w", reference, {1: _response((4, 5, 6), 8)})


def test_missing_pinned_outputs_fail_the_gate():
    with pytest.raises(gates.GateError):
        gates.pinned({"table2": {}}, "table2", 3)


def test_every_pool_seed_is_pinned():
    golden = gates.load_golden()
    for workload in ("table2", "openloop_inproc", "cluster_inline"):
        assert sorted(golden[workload], key=int) == [
            str(seed) for seed in range(gates.POOL)]


# -- the benchmark definition --------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runs_print():
    import run
    from h3dbench.tracing import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    # Every listed workload runs; openloop_inproc runs but is not listed.
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
