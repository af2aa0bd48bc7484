"""The traced run: spans around calls into each layer's public functions.

:class:`Tracer` replaces public functions and methods of the repository
with timing wrappers, from outside, and restores them afterwards.  A
function imported by name into other modules is wrapped at *every*
binding site: the tracer scans the loaded ``repro`` modules for attributes
that are the original function object.  Nothing here runs in an untraced
run, so end-to-end numbers never carry tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from h3dbench.measure import SpanRecorder, attribute_wall, percentile, self_times

#: (module, function, span name): wrapped wherever the function is bound.
FUNCTIONS = (
    ("repro.experiments.table2", "run_table2", "experiments.run_table2"),
    ("repro.resonator.replay", "run_group", "resonator.run_group"),
    ("repro.cim.rram.batched", "program_codebook", "cim.program"),
    ("repro.vsa.codebook", "codebook_fingerprint", "vsa.fingerprint"),
    ("repro.vsa.codebook", "codebook_set_fingerprint", "vsa.fingerprint"),
    ("repro.service.registry", "codebook_fingerprint", "vsa.fingerprint"),
    ("repro.service.wire", "encode_request", "wire.encode"),
    ("repro.service.wire", "decode_response", "wire.decode"),
)

#: (module, class, method, span name).
METHODS = (
    ("repro.service.scheduler", "FactorizationService", "submit",
     "service.submit"),
    ("repro.service.scheduler", "FactorizationService", "run_coalesced",
     "service.run_coalesced"),
    ("repro.service.registry", "CodebookRegistry", "intern",
     "service.registry.intern"),
    ("repro.resonator.backends", "ExactBackend", "similarity_batch",
     "core.exact.similarity"),
    ("repro.resonator.backends", "ExactBackend", "project_batch",
     "core.exact.projection"),
    ("repro.core.crossbar_backend", "CIMBatchedBackend", "similarity_batch",
     "core.crossbar.similarity"),
    ("repro.core.crossbar_backend", "CIMBatchedBackend", "project_batch",
     "core.crossbar.projection"),
    ("repro.core.crossbar_backend", "ConductanceCache", "get",
     "core.conductance_cache.get"),
    ("repro.cim.adc", "SARADC", "convert", "cim.adc"),
    ("repro.resonator.activations", "SignActivation", "__call__",
     "resonator.activation"),
    ("repro.resonator.stochastic", "ThresholdPolicy", "threshold",
     "resonator.threshold"),
    ("repro.service.http.client", "HTTPTransport", "evaluate",
     "http.client.evaluate"),
    ("repro.cluster.client", "ClusterClient", "evaluate",
     "cluster.client.evaluate"),
)

#: Rows of the wall-time budget (first component of a span name).
LAYERS = (
    "experiments", "service", "resonator", "core", "cim", "vsa", "wire",
    "http", "cluster",
)

#: Every per-layer metric, in print order: (name, unit).
PER_LAYER = (
    ("resonator.run_group.calls", "count"),
    ("resonator.run_group.s", "s"),
    ("resonator.batch_size.mean", "count"),
    ("resonator.trial_sweeps", "count"),
    ("resonator.trial_sweeps_per_s", "1/s"),
    ("resonator.activation.s", "s"),
    ("resonator.threshold.calls", "count"),
    ("resonator.threshold.s", "s"),
    ("core.crossbar.similarity.s", "s"),
    ("core.crossbar.projection.s", "s"),
    ("core.exact.similarity.s", "s"),
    ("core.exact.projection.s", "s"),
    ("core.conductance_cache.get.s", "s"),
    ("core.conductance_cache.hit_ratio", "ratio"),
    ("cim.program.calls", "count"),
    ("cim.program.s", "s"),
    ("cim.adc.s", "s"),
    ("vsa.fingerprint.calls", "count"),
    ("vsa.fingerprint.s", "s"),
    ("service.submit.s", "s"),
    ("service.in_service_ms.p50", "ms"),
    ("service.in_service_ms.p99", "ms"),
    ("service.wait_ms.p50", "ms"),
    ("service.batches", "count"),
    ("service.batch_size.mean", "count"),
    ("service.queue_depth.mean", "count"),
    ("service.registry.hit_ratio", "ratio"),
    ("service.registry.evictions", "count"),
    ("service.registry.intern.s", "s"),
    ("wire.encode.s", "s"),
    ("wire.decode.s", "s"),
    ("wire.request_bytes.mean", "bytes"),
    ("wire.response_bytes.mean", "bytes"),
    ("http.client.evaluate.s", "s"),
    ("http.client.retries", "count"),
    ("http.server.eval_ms.p50", "ms"),
    ("http.transit_ms.p50", "ms"),
    ("cluster.client.evaluate.s", "s"),
    ("cluster.refreshes", "count"),
    ("cluster.rerouted", "count"),
    ("cluster.node.batch_size.mean", "count"),
    ("loadgen.lag_ms.max", "ms"),
    ("unattributed.s", "s"),
    ("wall.s", "s"),
) + tuple((f"budget.{layer}.s", "s") for layer in LAYERS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs timing wrappers, records spans, derives per-layer metrics."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.recorder = SpanRecorder(clock)
        self.clock = clock
        #: Extra per-span samples (batch sizes, bytes, in-service times).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        #: span name -> "module.attr" binding sites that were wrapped.
        self.sites: Dict[str, List[str]] = defaultdict(list)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Registries seen interning (table2 builds its own per sweep).
        self._registries: Dict[int, Any] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, original: Callable, after=None,
              request_id=None) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.begin(
                name, request_id(args) if request_id is not None else None
            )
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every target; call after set-up so forked nodes stay clean."""
        for module_name in {entry[0] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(module_name)
        hooks = {
            "resonator.run_group": self._after_run_group,
            "service.submit": self._after_submit,
            "service.registry.intern": self._after_intern,
            "wire.encode": self._after_encode,
            "wire.decode": self._after_decode,
        }
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, after=hooks.get(name))
            for mod_name, module in sorted(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapper)
                    self.sites[name].append(f"{mod_name}.{attr}")
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            request_id = None
            if name in ("service.submit", "http.client.evaluate",
                        "cluster.client.evaluate"):
                request_id = lambda args: args[1].request_id  # noqa: E731
            self._set(
                cls, attr,
                self._wrap(name, cls.__dict__[attr], after=hooks.get(name),
                           request_id=request_id),
            )
            self.sites[name].append(f"{module_name}.{cls_name}.{attr}")
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-call hooks: ``span`` is the recorder's [name, start, end, ...] --

    def _after_run_group(self, args, kwargs, results, span) -> None:
        problems = kwargs.get("problems", args[1] if len(args) > 1 else ())
        with self._lock:
            self.samples["run_group.size"].append(len(problems))
            self.counts["trial_sweeps"] += sum(int(r.iterations) for r in results)
        # The scheduler resolves the batch's futures in this thread right
        # after run_group returns; done-callbacks read the engine time here.
        self._local.engine = span[2] - span[1]

    def _after_submit(self, args, kwargs, future, span) -> None:
        submitted = span[1]

        def done(_future) -> None:
            now = self.clock()
            in_service = now - submitted
            engine = getattr(self._local, "engine", None)
            with self._lock:
                self.samples["in_service"].append(in_service)
                if engine is not None:
                    self.samples["wait"].append(in_service - engine)

        future.add_done_callback(done)

    def _after_intern(self, args, kwargs, result, span) -> None:
        with self._lock:
            self._registries[id(args[0])] = args[0]
            self.counts["intern.hits" if result[2] else "intern.misses"] += 1

    def _after_encode(self, args, kwargs, payload, span) -> None:
        size = len(json.dumps(payload))
        with self._lock:
            self.samples["request_bytes"].append(size)

    def _after_decode(self, args, kwargs, result, span) -> None:
        size = len(json.dumps(args[0]))
        with self._lock:
            self.samples["response_bytes"].append(size)

    # -- metrics --------------------------------------------------------------

    def metrics(self, window: Tuple[float, float],
                counters: Dict[str, float]) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric; ``counters`` come from the
        workload (cache, registry and node ``/metrics`` deltas)."""
        spans = self.recorder.snapshot()
        selfs = self_times(spans)
        calls: Counter = Counter()
        busy: Counter = Counter()
        durations: Dict[str, List[float]] = defaultdict(list)
        for span in spans:
            parent = spans[span.parent].name if span.parent is not None else None
            if parent != span.name:
                calls[span.name] += 1
                busy[span.name] += span.end - span.start
            durations[span.name].append(span.end - span.start)
        rows, rest = attribute_wall(
            spans, window[0], window[1], lambda name: name.split(".")[0]
        )

        def p(name: str, pct: float, scale: float = 1e3) -> float:
            values = self.samples.get(name) or durations.get(name)
            return scale * percentile(values, pct) if values else 0.0

        def mean(name: str) -> float:
            values = self.samples.get(name)
            return sum(values) / len(values) if values else 0.0

        run_group_s = busy["resonator.run_group"]
        sweeps = self.counts["trial_sweeps"]
        client_p50 = p("http.client.evaluate", 50)
        server_p50 = counters.get("server_eval_ms_p50", 0.0)
        batches = counters.get("batches", calls["resonator.run_group"])
        batch_mean = counters.get("batch_size_mean", mean("run_group.size"))
        reg_hits = counters.get("registry_hits", self.counts["intern.hits"])
        reg_lookups = counters.get(
            "registry_lookups",
            self.counts["intern.hits"] + self.counts["intern.misses"],
        )
        values = {
            "resonator.run_group.calls": calls["resonator.run_group"],
            "resonator.run_group.s": run_group_s,
            "resonator.batch_size.mean": mean("run_group.size"),
            "resonator.trial_sweeps": sweeps,
            "resonator.trial_sweeps_per_s": _ratio(sweeps, run_group_s),
            "resonator.activation.s": selfs.get("resonator.activation", 0.0),
            "resonator.threshold.calls": calls["resonator.threshold"],
            "resonator.threshold.s": selfs.get("resonator.threshold", 0.0),
            "core.crossbar.similarity.s": selfs.get("core.crossbar.similarity", 0.0),
            "core.crossbar.projection.s": selfs.get("core.crossbar.projection", 0.0),
            "core.exact.similarity.s": selfs.get("core.exact.similarity", 0.0),
            "core.exact.projection.s": selfs.get("core.exact.projection", 0.0),
            "core.conductance_cache.get.s": selfs.get("core.conductance_cache.get", 0.0),
            "core.conductance_cache.hit_ratio": _ratio(
                counters.get("cache_hits", 0),
                counters.get("cache_hits", 0) + counters.get("cache_misses", 0),
            ),
            "cim.program.calls": calls["cim.program"],
            "cim.program.s": selfs.get("cim.program", 0.0),
            "cim.adc.s": selfs.get("cim.adc", 0.0),
            "vsa.fingerprint.calls": calls["vsa.fingerprint"],
            "vsa.fingerprint.s": selfs.get("vsa.fingerprint", 0.0),
            "service.submit.s": selfs.get("service.submit", 0.0),
            "service.in_service_ms.p50": p("in_service", 50),
            "service.in_service_ms.p99": p("in_service", 99),
            "service.wait_ms.p50": p("wait", 50),
            "service.batches": batches,
            "service.batch_size.mean": batch_mean,
            "service.queue_depth.mean": counters.get("queue_depth_mean", 0.0),
            "service.registry.hit_ratio": _ratio(reg_hits, reg_lookups),
            "service.registry.evictions": counters.get(
                "registry_evictions",
                sum(r.stats.evictions for r in self._registries.values()),
            ),
            "service.registry.intern.s": selfs.get("service.registry.intern", 0.0),
            "wire.encode.s": selfs.get("wire.encode", 0.0),
            "wire.decode.s": selfs.get("wire.decode", 0.0),
            "wire.request_bytes.mean": mean("request_bytes"),
            "wire.response_bytes.mean": mean("response_bytes"),
            "http.client.evaluate.s": selfs.get("http.client.evaluate", 0.0),
            "http.client.retries": counters.get("http_retries", 0),
            "http.server.eval_ms.p50": server_p50,
            "http.transit_ms.p50": client_p50 - server_p50 if server_p50 else 0.0,
            "cluster.client.evaluate.s": selfs.get("cluster.client.evaluate", 0.0),
            "cluster.refreshes": counters.get("cluster_refreshes", 0),
            "cluster.rerouted": counters.get("cluster_rerouted", 0),
            "cluster.node.batch_size.mean": counters.get("node_batch_size_mean", 0.0),
            "loadgen.lag_ms.max": counters.get("lag_ms_max", 0.0),
            "unattributed.s": rest,
            "wall.s": window[1] - window[0],
        }
        for layer in LAYERS:
            values[f"budget.{layer}.s"] = rows.get(layer, 0.0)
        return {name: float(values[name]) for name, _ in PER_LAYER}

    def dump(self, path: str) -> None:
        """Write the spans (name, start, end, parent, request id) as JSON."""
        spans = self.recorder.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request_id",
                               "thread"],
                    "sites": dict(self.sites),
                    "spans": [
                        [s.name, s.start, s.end, s.parent, s.request_id,
                         s.thread]
                        for s in spans
                    ],
                },
                handle,
            )
