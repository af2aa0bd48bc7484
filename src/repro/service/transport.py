"""Transport seam: transport-agnostic dispatch for factorization traffic.

A :class:`Transport` is the serving tier's narrow waist - the same five
verbs (``evaluate``, ``evaluate_batch``, ``register_codebooks``,
``health``, ``metrics``) whether the resonators run in the caller's
process, behind N worker processes, or across an HTTP connection:

* :class:`InProcessTransport` (here) wraps a
  :class:`~repro.service.scheduler.FactorizationService` directly - the
  zero-copy reference implementation every other transport must match
  bit for bit;
* :class:`~repro.service.workers.ShardedWorkerPool` dispatches over
  multiprocess queues to registry-sharded workers;
* :class:`~repro.service.http.client.HTTPTransport` speaks the wire
  codec to a remote :class:`~repro.service.http.server.H3DFactHTTPServer`
  (and retries retryable failures).

Because per-request seeding makes factorizations a pure function of
(request, profile), any two transports given the same seeded request set
must return bit-identical results - the property the wire-determinism
suite pins across all three implementations.
"""

from __future__ import annotations

import abc
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import RequestTimeoutError
from repro.service.request import FactorizationRequest, FactorizationResponse
from repro.service.scheduler import FactorizationService
from repro.telemetry import get_log, mint_trace_id
from repro.vsa.codebook import CodebookSet

#: Scatter result: a response, or the typed error that request hit.
ResponseOrError = Union[FactorizationResponse, BaseException]


class Transport(abc.ABC):
    """Abstract dispatch seam for factorization traffic.

    Implementations must preserve the determinism contract: a seeded
    request's response depends only on the request (product, codebooks,
    seed, budget, fidelity), never on the transport, arrival order, or
    which worker served it.
    """

    @abc.abstractmethod
    def evaluate(
        self,
        request: FactorizationRequest,
        *,
        timeout: Optional[float] = None,
    ) -> FactorizationResponse:
        """Serve one request synchronously.

        Raises :class:`~repro.errors.RequestTimeoutError` when ``timeout``
        (seconds) elapses first.
        """

    @abc.abstractmethod
    def evaluate_scatter(
        self,
        requests: Sequence[FactorizationRequest],
        *,
        timeout: Optional[float] = None,
    ) -> List[ResponseOrError]:
        """Serve a request list; per-item response-or-exception, in order.

        Partial failure is expressed positionally (an exception object in
        the failed slot) so callers can retry just the failed items.
        """

    def evaluate_batch(
        self,
        requests: Sequence[FactorizationRequest],
        *,
        timeout: Optional[float] = None,
    ) -> List[FactorizationResponse]:
        """Serve a request list, raising the first failure (all-or-error)."""
        results = self.evaluate_scatter(requests, timeout=timeout)
        for item in results:
            if isinstance(item, BaseException):
                raise item
        return results  # type: ignore[return-value]

    @abc.abstractmethod
    def register_codebooks(self, codebooks: CodebookSet) -> str:
        """Pre-program a codebook set; returns its content-hash key.

        Subsequent requests may carry ``codebook_key`` instead of inline
        codebooks (smaller wire payloads; program-once economics).
        """

    @abc.abstractmethod
    def health(self) -> Dict[str, Any]:
        """Liveness summary (JSON-safe)."""

    @abc.abstractmethod
    def metrics(self) -> Dict[str, Any]:
        """Serving counters (JSON-safe)."""

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InProcessTransport(Transport):
    """The reference transport: a service in the caller's process.

    Owns its service when constructed without one (and closes it on
    :meth:`close`); wrapping an existing service leaves its lifecycle to
    the caller.
    """

    def __init__(self, service: Optional[FactorizationService] = None) -> None:
        self._own_service = service is None
        self.service = service if service is not None else FactorizationService()

    def _accept(self, request: FactorizationRequest) -> FactorizationRequest:
        """Telemetry seam: mint a trace id if absent, emit ``request.accepted``.

        A no-op returning the request unchanged when telemetry is off, so
        the disabled path builds no copies and stays bit-identical.
        """
        log = get_log()
        if not log.enabled:
            return request
        if request.trace_id is None:
            request = request.with_trace(mint_trace_id())
        log.emit(
            "request.accepted",
            trace_id=request.trace_id,
            request_id=request.request_id,
            source="in-process",
        )
        return request

    def evaluate(
        self,
        request: FactorizationRequest,
        *,
        timeout: Optional[float] = None,
    ) -> FactorizationResponse:
        """Submit one request and wait for its micro-batch to flush."""
        future = self.service.submit(self._accept(request))
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            raise RequestTimeoutError(
                f"request {request.request_id!r} did not complete within "
                f"{timeout}s"
            ) from None

    def evaluate_scatter(
        self,
        requests: Sequence[FactorizationRequest],
        *,
        timeout: Optional[float] = None,
    ) -> List[ResponseOrError]:
        """Submit the whole list (coalescing applies), then gather."""
        futures = self.service.submit_many(
            [self._accept(request) for request in requests]
        )
        self.service.flush()
        results: List[ResponseOrError] = []
        for request, future in zip(requests, futures):
            try:
                results.append(future.result(timeout=timeout))
            except FutureTimeoutError:
                results.append(
                    RequestTimeoutError(
                        f"request {request.request_id!r} did not complete "
                        f"within {timeout}s"
                    )
                )
            except BaseException as error:
                results.append(error)
        return results

    def register_codebooks(self, codebooks: CodebookSet) -> str:
        """Intern into the service's registry; returns the content key."""
        return self.service.registry.register(codebooks)

    def health(self) -> Dict[str, Any]:
        """Open/closed plus registry occupancy."""
        return {
            "transport": "in-process",
            "closed": self.service.closed,
            "registered_codebooks": len(self.service.registry),
        }

    def metrics(self) -> Dict[str, Any]:
        """The service's intake/batching counters (plus cache/telemetry)."""
        from repro.service.profiles import cache_metrics

        stats = self.service.stats
        log = get_log()
        return {
            "transport": "in-process",
            "submitted": stats.submitted,
            "completed": stats.completed,
            "failed": stats.failed,
            "rejected": stats.rejected,
            "batches": stats.batches,
            "mean_batch_size": stats.mean_batch_size,
            "registry_hits": self.service.registry.stats.hits,
            "registry_misses": self.service.registry.stats.misses,
            "registry_evictions": self.service.registry.stats.evictions,
            "batch_size_histogram": self.service.batch_size_histogram.to_dict(),
            "queue_depth_histogram": (
                self.service.queue_depth_histogram.to_dict()
            ),
            "caches": cache_metrics(),
            "telemetry_emitted": getattr(log, "emitted", 0),
            "telemetry_dropped": getattr(log, "dropped", 0),
        }

    def close(self) -> None:
        """Close the owned service (no-op for caller-owned services)."""
        if self._own_service:
            self.service.close()


def request_routing_key(request: FactorizationRequest) -> str:
    """The key a sharded transport routes on: the codebook content hash.

    Routing by codebook identity (not request id) is what keeps
    program-once amortization alive under sharding - every request
    against one codebook set lands on the worker that programmed it.
    """
    if request.codebook_key is not None:
        return request.codebook_key
    return request.codebooks.fingerprint
