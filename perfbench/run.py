#!/usr/bin/env python3
"""H3DFact end-to-end and per-layer benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Every run starts fresh interpreters: ``SETUP_RUNS - 1`` that only set the
workload up (for the ``setup_s`` median) and one that sets up, measures
for about ``--seconds`` and checks the seeded outputs against the pinned
values in ``perfbench/golden.json``.  Children are pinned to one CPU, and
end-to-end times are busy time: wall time minus the hypervisor's steal of
that CPU.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A gate mismatch exits with status 1.
Records (with provenance) are appended to ``.perfbench/records.jsonl``
and traced spans written to ``.perfbench/spans-<workload>-<seed>.json``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("table2", "openloop_inproc", "cluster_inline")
#: Fresh interpreters whose set-up time is measured (median reported).
SETUP_RUNS = 3
#: Whole-run budget; every child gets what is left of it.
RUN_BUDGET_S = 170.0
#: PYTHONHASHSEED of every child interpreter.
HASH_SEED = "0"
#: Children run on one CPU with one BLAS thread (see ``spawn``).
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

#: End-to-end metrics (untraced run), in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    """A benchmark child exited non-zero or printed no result."""


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-steal", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- child: one fresh interpreter --------------------------------------------


def child(args) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from h3dbench import gates, provenance
    from h3dbench.measure import StealClock, cpu_steal_s, median, slice_figures
    from h3dbench.tracing import Tracer
    from h3dbench.workloads import WORKLOADS

    def steal() -> float:
        return cpu_steal_s(args.cpu)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    setup_wall = time.monotonic() - args.spawned_at
    stolen = max(0.0, steal() - args.spawned_steal)
    setup_s = setup_wall - min(setup_wall, stolen)
    if args.child == "setup":
        workload.close()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0
    tracer = Tracer().install() if args.trace else None
    clock = StealClock(steal).start()
    before = workload.counters()
    outcome = workload.measure()
    after = workload.counters()
    clock.stop()
    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics(outcome.window,
                               workload.layer_counters(before, after))
        outcome.detail["traced_trial_sweeps"] = int(
            layer["resonator.trial_sweeps"])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.close()
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        gate = workload.check(outcome)
        correct = True
    except gates.GateError as error:
        gate = {"error": str(error)}
        correct = False
    figures = (outcome.window, outcome.samples, outcome.completions,
               outcome.slices)
    slices, latencies = slice_figures(*figures, busy=clock.busy,
                                      rate=outcome.rate)
    wall_slices, _ = slice_figures(*figures, rate=outcome.rate)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "window_s": outcome.window[1] - outcome.window[0],
        "stolen_s": clock.total,
        "slices": slices,
        "latencies": latencies,
        # The same figures on the wall clock, recorded beside the busy ones.
        "wall": {name: median([part[name] for part in wall_slices])
                 for name in wall_slices[0]},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "detail": outcome.detail,
        # A node process is forked from this one and shares the pages it
        # inherits, so the two maxrss values are not added: the larger counts.
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "rss_mb": {"self": self_kb / 1024.0, "children": child_kb / 1024.0},
        "layer": layer,
        "sites": dict(tracer.sites) if tracer is not None else None,
        "gate": gate,
        "correct": correct,
        "runtime": provenance.runtime(),
    }))
    return 0


# -- parent -------------------------------------------------------------------


def spawn(args, role: str, deadline: float) -> dict:
    from h3dbench.measure import cpu_steal_s

    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {role} child")
    # Every child, and the node process a cluster child forks, runs on one
    # CPU: a request then never waits for a wake-up on the other vCPU, and
    # the hypervisor's steal of that one CPU is the whole steal the run
    # suffered, which the busy clock subtracts (see README).
    cpu = max(os.sched_getaffinity(0))
    command = [
        sys.executable, os.path.abspath(__file__), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--cpu", str(cpu), "--spawned-steal", repr(cpu_steal_s(cpu)),
        "--spawned-at", repr(time.monotonic()),
    ]
    # A fixed hash seed: with per-process random seeds, table2's wall time
    # moved by up to 10 % between processes on identical inputs.
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **SINGLE_THREAD_ENV)
    # Own process group: a cluster child forks a node process, and a
    # timed-out child must not leave that node serving.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True, env=env,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{role} child exceeded the run budget") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setup_runs: list) -> tuple:
    from h3dbench.measure import median, tail

    worst = tail(result["latencies"])
    values = {"setup_s": median(setup_runs),
              "peak_rss_mb": result["peak_rss_mb"]}
    for name in ("throughput", "latency_p50_ms", "latency_p95_ms"):
        values[name] = median([part[name] for part in result["slices"]])
    # The highest percentile the sample supports (p99 from 1000 samples)
    # is reported with its count; it carries no bound because on a shared
    # 2-vCPU host it swings too much between runs (see README).
    return values, {"latency_samples": worst.samples,
                    "latency_tail_pct": worst.pct,
                    "latency_tail_ms": 1e3 * worst.value}


def last_untraced(args) -> dict:
    """The newest untraced record of this workload, seed and length."""
    path = os.path.join(OUT_DIR, "records.jsonl")
    found = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if (record["workload"], record["seed"], record["seconds"],
                        record["trace"]) == (args.workload, args.seed,
                                             args.seconds, 0):
                    found = record
    except (OSError, ValueError):
        return None
    return found


def report_trace(args, result: dict, traced: dict) -> dict:
    from h3dbench.tracing import LAYERS, PER_LAYER

    layer = result["layer"]
    units = dict(PER_LAYER)
    print("per-layer metrics (traced run):")
    for name, _ in PER_LAYER:
        print(f"  {name:36s} {layer[name]:14.6g} {units[name]}")
    rows = sum(layer[f"budget.{name}.s"] for name in LAYERS)
    print(f"wall budget: layers {rows:.4f} s + unattributed "
          f"{layer['unattributed.s']:.4f} s = {rows + layer['unattributed.s']:.4f}"
          f" s (wall {layer['wall.s']:.4f} s)")
    for name in LAYERS:
        print(f"  {name:12s} {layer[f'budget.{name}.s']:10.4f} s")
    untraced = last_untraced(args)
    overhead = {}
    if untraced is None:
        print("tracing overhead: no untraced record of this workload/seed "
              "yet (run with --trace 0 first)")
    else:
        for name in ("throughput", "latency_p50_ms", "latency_p95_ms"):
            base = untraced["metrics"][name]
            overhead[name] = (traced[name] - base) / base if base else None
            print(f"tracing overhead {name}: traced {traced[name]:.4g} vs "
                  f"untraced {base:.4g} ({100 * overhead[name]:+.1f}%)")
    return overhead


def main(argv=None) -> int:
    args = parse(argv)
    if args.child:
        return child(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from h3dbench import provenance
    from h3dbench.tracing import PER_LAYER

    # SIGTERM unwinds through spawn(), which kills the child's group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = [] if args.trace else [
            spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)
        ]
        result = spawn(args, "measure", deadline)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    setups.append(result)
    setup_runs = [setup["setup_s"] for setup in setups]
    values, samples = end_to_end(result, setup_runs)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"gates {'ok' if result['correct'] else 'FAILED'}: {result['gate']}")
    print(f"  host steal {result['stolen_s']:.3f} s of a "
          f"{result['window_s']:.3f} s window; wall-clock figures: "
          + ", ".join(f"{name} {value:.4g}"
                      for name, value in result["wall"].items()))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "timestamp": time.time(),
        "metrics": values, "samples": samples, "setup_runs": setup_runs,
        "setup_wall_runs": [setup["setup_wall_s"] for setup in setups],
        "wall": result["wall"], "stolen_s": result["stolen_s"],
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": result["correct"], "gate": result["gate"],
        "detail": result["detail"], "slices": result["slices"],
        "rss_mb": result["rss_mb"],
        "provenance": dict(
            provenance.host(ROOT), **result["runtime"], seed=args.seed),
    }
    if args.trace:
        record["layer"] = result["layer"]
        record["sites"] = result["sites"]
        record["tracing_overhead"] = report_trace(args, result, values)
        metrics = {name: {"value": result["layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        for name, unit in END_TO_END:
            print(f"  {name:16s} {values[name]:12.4f} {unit}")
        print(f"  latency samples {samples['latency_samples']}; highest "
              f"supported percentile p{samples['latency_tail_pct']:g} = "
              f"{samples['latency_tail_ms']:.4f} ms (unbounded)")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
