"""Registry-sharded multiprocess worker pool behind the transport seam.

:class:`ShardedWorkerPool` is the :class:`~repro.service.transport.Transport`
that escapes the GIL: N worker *processes*, each running its own
:class:`~repro.service.scheduler.FactorizationService` over its own
:class:`~repro.service.registry.CodebookRegistry` shard.  Requests route
by codebook fingerprint over a
:class:`~repro.service.sharding.ConsistentHashRing`, so all traffic
against one codebook set lands on the worker that programmed it -
program-once amortization (conductance tiles, packed bit planes)
survives sharding.

Fault model (exercised by ``tests/test_service_faults.py``):

* **Worker loss** - every shard has its *own* inbox and outbox queue and
  is the sole writer of its outbox, so a ``SIGKILL`` cannot corrupt
  another shard's channel.  A monitor thread detects the dead process,
  fails that shard's in-flight requests with
  :class:`~repro.errors.WorkerLostError` (retryable), respawns the worker
  on fresh queues, and replays the codebook registrations the control
  plane holds for that shard.
* **Backpressure** - per-shard inboxes are bounded; ``"block"`` stalls
  the submitter (re-checking for restarts), ``"error"`` raises
  :class:`~repro.errors.BackpressureError` immediately.
* **Timeout** - :meth:`ShardedWorkerPool.evaluate` raises
  :class:`~repro.errors.RequestTimeoutError` when the caller's deadline
  passes; a late result is discarded (counted as ``orphaned``).

Determinism: workers resolve requests through the same seeded-replay
scheduler as the in-process path, so a seeded request's response is
bit-identical regardless of shard count, arrival order, or restarts.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    RequestTimeoutError,
    ServiceError,
    WorkerLostError,
)
from repro.service import wire
from repro.service.registry import CodebookRegistry
from repro.service.request import FactorizationRequest, FactorizationResponse
from repro.service.scheduler import BatchPolicy, FactorizationService
from repro.service.sharding import ConsistentHashRing
from repro.service.transport import (
    ResponseOrError,
    Transport,
    request_routing_key,
)
from repro.telemetry import get_log
from repro.vsa.codebook import CodebookSet

_BACKPRESSURE_POLICIES = ("block", "error")

#: Environment override for the multiprocessing start method
#: (``fork``/``spawn``/``forkserver``); wins over config.
START_METHOD_ENV = "H3DFACT_MP_START"


@dataclass
class WorkerPoolConfig:
    """Shape and fault policy of a :class:`ShardedWorkerPool`."""

    #: Number of worker processes (= registry shards).
    shards: int = 2
    #: Bound on each shard's inbox (undispatched requests).
    queue_capacity: int = 256
    #: ``"block"`` the submitter on a full inbox, or ``"error"``.
    backpressure: str = "block"
    #: Micro-batch ceiling inside each worker's scheduler.
    max_batch_size: int = 32
    #: LRU capacity of each worker's registry shard.
    registry_capacity: int = 64
    #: Virtual nodes per shard on the routing ring.
    vnodes: int = 64
    #: Decode cadence forwarded to the workers' engines.
    check_correct_every: int = 1
    #: Respawn dead workers (and replay their registrations).
    restart_workers: bool = True
    #: Multiprocessing start method; ``None`` prefers ``fork`` (cheap,
    #: copy-on-write numpy) when available, else the platform default.
    start_method: Optional[str] = None
    #: Liveness poll cadence of the monitor thread, seconds.
    poll_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ConfigurationError(
                f"shards must be positive, got {self.shards}"
            )
        if self.queue_capacity <= 0:
            raise ConfigurationError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.backpressure not in _BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {_BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.poll_seconds <= 0:
            raise ConfigurationError(
                f"poll_seconds must be positive, got {self.poll_seconds}"
            )


@dataclass
class PoolStats:
    """Aggregate dispatch/fault counters for one pool."""

    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    worker_losses: int = 0
    restarts: int = 0
    orphaned: int = 0


def _resolve_start_method(config: WorkerPoolConfig) -> str:
    """Start-method priority: env var, config, fork-if-available."""
    method = os.environ.get(START_METHOD_ENV) or config.start_method
    available = multiprocessing.get_all_start_methods()
    if method is not None:
        if method not in available:
            raise ConfigurationError(
                f"start method {method!r} not available (have {available})"
            )
        return method
    return "fork" if "fork" in available else available[0]


def _shard_main(
    index: int,
    config: WorkerPoolConfig,
    inbox: "multiprocessing.Queue",
    outbox: "multiprocessing.Queue",
    generation: int = 0,
) -> None:
    """Worker process body: one scheduler over one registry shard.

    Protocol (``(op, job_id, payload)`` tuples): ``"eval"`` carries a
    wire-encoded request and answers ``("ok", job_id, response)`` or
    ``("error", job_id, envelope)``; ``"register"`` interns a codebook
    set (no reply when ``job_id`` is ``None`` - the restart replay path);
    ``"metrics"`` reports the shard's scheduler counters; ``"stop"``
    drains and exits.  The worker is the sole writer of its outbox, so a
    kill can never corrupt another shard's channel.
    """
    service = FactorizationService(
        policy=BatchPolicy(
            max_batch_size=config.max_batch_size,
            queue_capacity=max(1024, config.queue_capacity),
            backpressure="block",
        ),
        registry=CodebookRegistry(capacity=config.registry_capacity),
        workers=1,
        check_correct_every=config.check_correct_every,
    )
    # get_log() resolves from the inherited environment; under fork it
    # also detects the pid change and drops the parent's dead writer.
    log = get_log()
    if log.enabled:
        log.emit("worker.start", shard=index, generation=generation)

    def handle_control(op: str, job_id: Optional[str], payload: Any) -> None:
        """Serve one non-eval message (register / metrics / unknown op)."""
        try:
            if op == "register":
                key = service.registry.register(wire.decode_codebooks(payload))
                if job_id is not None:
                    outbox.put(("ok", job_id, {"codebook_key": key}))
            elif op == "metrics":
                from repro.service.profiles import cache_metrics

                stats = service.stats
                shard_log = get_log()
                outbox.put(
                    (
                        "ok",
                        job_id,
                        {
                            "shard": index,
                            "submitted": stats.submitted,
                            "completed": stats.completed,
                            "failed": stats.failed,
                            "batches": stats.batches,
                            "mean_batch_size": stats.mean_batch_size,
                            "registry_hits": service.registry.stats.hits,
                            "registry_misses": service.registry.stats.misses,
                            "registry_evictions": service.registry.stats.evictions,
                            "registered_codebooks": len(service.registry),
                            "batch_size_histogram": (
                                service.batch_size_histogram.to_dict()
                            ),
                            "queue_depth_histogram": (
                                service.queue_depth_histogram.to_dict()
                            ),
                            "caches": cache_metrics(),
                            "telemetry_emitted": getattr(shard_log, "emitted", 0),
                            "telemetry_dropped": getattr(shard_log, "dropped", 0),
                        },
                    )
                )
            else:
                if job_id is not None:
                    outbox.put(
                        (
                            "error",
                            job_id,
                            wire.encode_error(
                                ServiceError(f"unknown op {op!r}")
                            ),
                        )
                    )
        except BaseException as error:
            if job_id is not None:
                outbox.put(("error", job_id, wire.encode_error(error)))

    def run_evals(messages: List[Tuple[str, Any]]) -> None:
        """Decode, submit and answer one drained burst of eval messages."""
        # Submit the whole drained burst before flushing, so queued
        # traffic coalesces into stacked batches exactly like the
        # in-process path (seeded replay keeps results packing-
        # independent either way).
        submitted: List[Tuple[str, "Future[FactorizationResponse]"]] = []
        for job_id, payload in messages:
            try:
                request = wire.decode_request(payload)
                submitted.append((job_id, service.submit(request)))
            except BaseException as error:
                outbox.put(("error", job_id, wire.encode_error(error)))
        if not submitted:
            return
        service.flush()
        for job_id, future in submitted:
            try:
                response = future.result()
                response.shard = index
                outbox.put(("ok", job_id, wire.encode_response(response)))
            except BaseException as error:
                outbox.put(("error", job_id, wire.encode_error(error)))

    try:
        while True:
            message = inbox.get()
            evals: List[Tuple[str, Any]] = []
            stop = False
            while True:
                op, job_id, payload = message
                if op == "stop":
                    stop = True
                elif op == "eval":
                    evals.append((job_id, payload))
                else:
                    handle_control(op, job_id, payload)
                if stop or len(evals) >= config.max_batch_size:
                    break
                try:
                    message = inbox.get_nowait()
                except queue.Empty:
                    break
            run_evals(evals)
            if stop:
                return
    finally:
        service.close()
        log = get_log()
        if log.enabled:
            log.emit("worker.stop", shard=index, generation=generation)
            log.close()


@dataclass
class _PendingJob:
    """One dispatched request the frontend is waiting on."""

    shard: int
    generation: int
    future: "Future[Any]" = field(default_factory=Future)


class _Shard:
    """One worker process plus its private channels and listener."""

    def __init__(
        self,
        index: int,
        generation: int,
        config: WorkerPoolConfig,
        context: "multiprocessing.context.BaseContext",
    ) -> None:
        self.index = index
        self.generation = generation
        self.inbox: "multiprocessing.Queue" = context.Queue(
            maxsize=config.queue_capacity
        )
        self.outbox: "multiprocessing.Queue" = context.Queue()
        self.process = context.Process(
            target=_shard_main,
            args=(index, config, self.inbox, self.outbox, generation),
            name=f"h3dfact-shard-{index}",
            daemon=True,
        )
        self.stop_listening = threading.Event()
        self.listener: Optional[threading.Thread] = None

    def alive(self) -> bool:
        """True while the worker process is running."""
        return self.process.is_alive()


class ShardedWorkerPool(Transport):
    """Transport over N registry-sharded worker processes.

    Construction spawns the workers; :meth:`close` stops them.  Safe for
    concurrent use from many threads (the load generator's closed-loop
    workers all share one pool).
    """

    def __init__(self, config: Optional[WorkerPoolConfig] = None) -> None:
        self.config = config if config is not None else WorkerPoolConfig()
        self.stats = PoolStats()
        self._context = multiprocessing.get_context(
            _resolve_start_method(self.config)
        )
        self.ring = ConsistentHashRing(
            self.config.shards, vnodes=self.config.vnodes
        )
        self._job_ids = itertools.count()
        self._lock = threading.RLock()
        self._pending: Dict[str, _PendingJob] = {}
        self._registered: Dict[str, Any] = {}
        self._closing = False
        self._dead: set = set()
        self._started = time.monotonic()
        self._shards: List[_Shard] = []
        for index in range(self.config.shards):
            self._shards.append(self._spawn(index, generation=0))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="h3dfact-pool-monitor", daemon=True
        )
        self._monitor.start()

    # -- shard lifecycle -----------------------------------------------------

    def _spawn(self, index: int, generation: int) -> _Shard:
        """Start one worker process and its outbox listener."""
        shard = _Shard(index, generation, self.config, self._context)
        shard.process.start()
        shard.listener = threading.Thread(
            target=self._listen,
            args=(shard,),
            name=f"h3dfact-listener-{index}-g{generation}",
            daemon=True,
        )
        shard.listener.start()
        return shard

    def _listen(self, shard: _Shard) -> None:
        """Drain one shard generation's outbox into pending futures."""
        while not shard.stop_listening.is_set():
            try:
                kind, job_id, payload = shard.outbox.get(timeout=0.1)
            except queue.Empty:
                continue
            except (EOFError, OSError):
                return
            with self._lock:
                job = self._pending.pop(job_id, None)
            if job is None:
                with self._lock:
                    self.stats.orphaned += 1
                continue
            if kind == "ok":
                job.future.set_result(payload)
            else:
                job.future.set_exception(wire.decode_error(payload))

    def _monitor_loop(self) -> None:
        """Detect dead workers; fail their in-flight jobs; respawn."""
        while not self._closing:
            time.sleep(self.config.poll_seconds)
            for index in range(self.config.shards):
                with self._lock:
                    if self._closing:
                        return
                    if index in self._dead:
                        continue
                    shard = self._shards[index]
                    if shard.alive():
                        continue
                    self._handle_loss(shard)

    def _handle_loss(self, shard: _Shard) -> None:
        """Called with the lock held: one shard generation died."""
        shard.stop_listening.set()
        # Nobody will read this inbox again.  Its feeder thread may be
        # blocked on a full pipe (the read end stays open in this process),
        # and joining it at interpreter exit would hang forever.
        shard.inbox.cancel_join_thread()
        self.stats.worker_losses += 1
        lost = [
            job_id
            for job_id, job in self._pending.items()
            if job.shard == shard.index and job.generation <= shard.generation
        ]
        error = WorkerLostError(
            f"worker shard {shard.index} (generation {shard.generation}) "
            f"died with exit code {shard.process.exitcode}; "
            f"{len(lost)} request(s) in flight"
        )
        for job_id in lost:
            job = self._pending.pop(job_id)
            self.stats.failed += 1
            job.future.set_exception(error)
        log = get_log()
        if log.enabled:
            log.emit(
                "worker.death",
                shard=shard.index,
                generation=shard.generation,
                exit_code=shard.process.exitcode,
                in_flight=len(lost),
            )
        if not self.config.restart_workers:
            # No respawn: mark the shard permanently dead so new dispatches
            # fail fast instead of queueing against a corpse.
            self._dead.add(shard.index)
            return
        replacement = self._spawn(shard.index, shard.generation + 1)
        self._shards[shard.index] = replacement
        self.stats.restarts += 1
        if log.enabled:
            log.emit(
                "worker.restarted",
                shard=shard.index,
                generation=replacement.generation,
            )
        # Replay the control plane: re-program every codebook set this
        # shard owns so keyed requests resolve after the restart.
        replayed = 0
        for key, payload in self._registered.items():
            if self.ring.route(key) == shard.index:
                replacement.inbox.put(("register", None, payload))
                replayed += 1
        if log.enabled and replayed:
            log.emit(
                "worker.replay",
                shard=shard.index,
                generation=replacement.generation,
                codebooks=replayed,
            )

    def kill_shard(self, index: int) -> None:
        """Fault injection: SIGKILL one worker process (tests use this)."""
        with self._lock:
            process = self._shards[index].process
        if process.pid is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5.0)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(
        self, index: int, op: str, payload: Any
    ) -> "Future[Any]":
        """Enqueue one message onto a shard's inbox; returns its future."""
        with self._lock:
            if self._closing:
                raise ServiceError("worker pool is closed")
            if index in self._dead:
                raise WorkerLostError(
                    f"worker shard {index} is dead and restarts are disabled"
                )
            shard = self._shards[index]
            job_id = f"j{next(self._job_ids)}"
            job = _PendingJob(shard=index, generation=shard.generation)
            self._pending[job_id] = job
            self.stats.dispatched += 1
        if op == "eval":
            log = get_log()
            if log.enabled:
                log.emit(
                    "request.dispatched",
                    trace_id=payload.get("trace_id"),
                    request_id=payload.get("request_id"),
                    shard=index,
                    generation=shard.generation,
                )
        message = (op, job_id, payload)
        if self.config.backpressure == "error":
            try:
                shard.inbox.put_nowait(message)
            except queue.Full:
                with self._lock:
                    self._pending.pop(job_id, None)
                    self.stats.rejected += 1
                    self.stats.dispatched -= 1
                raise BackpressureError(
                    f"shard {index} inbox full "
                    f"({self.config.queue_capacity} pending)"
                ) from None
            return job.future
        while True:
            try:
                shard.inbox.put(message, timeout=0.05)
                return job.future
            except queue.Full:
                # Re-read the shard: a restart swaps in fresh queues, and
                # a blocked put against a dead inbox would never drain.
                with self._lock:
                    if self._closing:
                        self._pending.pop(job_id, None)
                        raise ServiceError("worker pool is closed") from None
                    current = self._shards[index]
                    if current is not shard:
                        if job_id not in self._pending:
                            # The loss handler already failed this job
                            # (WorkerLostError); hand the caller that.
                            return job.future
                        shard = current
                        job.generation = shard.generation

    def _await(
        self, future: "Future[Any]", *, timeout: Optional[float]
    ) -> Any:
        """Wait for a dispatched job, mapping timeout to the typed error."""
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            with self._lock:
                for job_id, job in list(self._pending.items()):
                    if job.future is future:
                        self._pending.pop(job_id)
                        break
            raise RequestTimeoutError(
                f"request did not complete within {timeout}s"
            ) from None

    # -- Transport implementation --------------------------------------------

    def evaluate(
        self,
        request: FactorizationRequest,
        *,
        timeout: Optional[float] = None,
    ) -> FactorizationResponse:
        """Route one request to its codebook's shard and wait."""
        index = self.ring.route(request_routing_key(request))
        future = self._dispatch(index, "eval", wire.encode_request(request))
        payload = self._await(future, timeout=timeout)
        with self._lock:
            self.stats.completed += 1
        return wire.decode_response(payload)

    def evaluate_scatter(
        self,
        requests: Sequence[FactorizationRequest],
        *,
        timeout: Optional[float] = None,
    ) -> List[ResponseOrError]:
        """Dispatch the whole list (sharded fan-out), then gather in order."""
        futures: List[ResponseOrError] = []
        for request in requests:
            try:
                index = self.ring.route(request_routing_key(request))
                futures.append(
                    self._dispatch(index, "eval", wire.encode_request(request))
                )
            except BaseException as error:
                futures.append(error)
        results: List[ResponseOrError] = []
        for item in futures:
            if isinstance(item, BaseException):
                results.append(item)
                continue
            try:
                payload = self._await(item, timeout=timeout)
                with self._lock:
                    self.stats.completed += 1
                results.append(wire.decode_response(payload))
            except BaseException as error:
                results.append(error)
        return results

    def register_codebooks(self, codebooks: CodebookSet) -> str:
        """Program a codebook set onto its ring shard (control plane).

        The pool remembers the wire payload so a restarted shard can be
        re-programmed without client involvement.
        """
        payload = wire.encode_codebooks(codebooks)
        key = codebooks.fingerprint
        with self._lock:
            self._registered[key] = payload
        index = self.ring.route(key)
        future = self._dispatch(index, "register", payload)
        answer = self._await(future, timeout=60.0)
        return answer["codebook_key"]

    def health(self) -> Dict[str, Any]:
        """Shard liveness and restart counters."""
        with self._lock:
            return {
                "transport": "sharded",
                "shards": self.config.shards,
                "alive": [shard.alive() for shard in self._shards],
                "generations": [shard.generation for shard in self._shards],
                "restarts": self.stats.restarts,
                "worker_losses": self.stats.worker_losses,
                "uptime_seconds": time.monotonic() - self._started,
                "closed": self._closing,
            }

    def metrics(self) -> Dict[str, Any]:
        """Pool counters plus per-shard scheduler counters (best effort)."""
        with self._lock:
            summary: Dict[str, Any] = {
                "transport": "sharded",
                "dispatched": self.stats.dispatched,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "rejected": self.stats.rejected,
                "worker_losses": self.stats.worker_losses,
                "restarts": self.stats.restarts,
                "orphaned": self.stats.orphaned,
                "pending": len(self._pending),
                "telemetry_emitted": getattr(get_log(), "emitted", 0),
                "telemetry_dropped": getattr(get_log(), "dropped", 0),
            }
        shards = []
        for index in range(self.config.shards):
            try:
                future = self._dispatch(index, "metrics", None)
                shards.append(self._await(future, timeout=5.0))
            except BaseException as error:
                shards.append({"shard": index, "error": str(error)})
        summary["shards"] = shards
        return summary

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers, fail whatever is still pending, join threads."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            shards = list(self._shards)
            pending = list(self._pending.items())
            self._pending.clear()
        for job_id, job in pending:
            if not job.future.done():
                job.future.set_exception(
                    ServiceError("worker pool closed with the request pending")
                )
        for shard in shards:
            try:
                shard.inbox.put(("stop", None, None), timeout=0.5)
            except (queue.Full, ValueError, OSError):
                pass
        deadline = time.monotonic() + 10.0
        for shard in shards:
            shard.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2.0)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join(timeout=2.0)
            shard.inbox.cancel_join_thread()  # see _handle_loss
            shard.stop_listening.set()
        for shard in shards:
            if shard.listener is not None:
                shard.listener.join(timeout=2.0)
        if threading.current_thread() is not self._monitor:
            self._monitor.join(timeout=2.0)

    def __repr__(self) -> str:
        return (
            f"ShardedWorkerPool(shards={self.config.shards}, "
            f"backpressure={self.config.backpressure!r}, stats={self.stats!r})"
        )
