"""Micro-batching factorization service (the program-once/query-many path).

Production serving layer over the batched resonator engine: individual
:class:`FactorizationRequest`\\ s are coalesced into stacked micro-batches
by a :class:`FactorizationService` (max-batch-size / max-wait flush
policy, bounded-queue backpressure, thread worker pool), codebooks are
interned once into a content-addressed LRU :class:`CodebookRegistry`, and
per-request seeding makes deterministic configurations replay
bit-identically regardless of arrival order or batch packing.

The serving tier extends the same guarantee over process and network
boundaries: dispatch is transport-agnostic behind the :class:`Transport`
seam (:class:`InProcessTransport` here,
:class:`~repro.service.workers.ShardedWorkerPool` over registry-sharded
worker processes, :class:`~repro.service.http.HTTPTransport` over the
stdlib HTTP server in :mod:`repro.service.http`), requests may name an
execution profile (:mod:`repro.service.profiles`), and the
:class:`~repro.service.sharding.ConsistentHashRing` routes live traffic
by codebook fingerprint so program-once amortization survives sharding.

>>> from repro.service import FactorizationRequest, FactorizationService
>>> from repro import FactorizationProblem
>>> with FactorizationService() as service:
...     problem = FactorizationProblem.random(1024, 3, 16, rng=0)
...     future = service.submit(
...         FactorizationRequest.from_problem(problem, seed=7)
...     )
...     response = future.result()
>>> response.result.correct
True
"""

from repro.resonator.replay import (
    GeometryKey,
    geometry_key,
    group_by_geometry,
    run_group,
    run_problems_grouped,
    seeded_initial_estimates,
)
from repro.service.bench import ServeBenchConfig, ServeBenchResult, run_serve_bench
from repro.service.registry import (
    CodebookRegistry,
    RegistryStats,
    codebook_fingerprint,
)
from repro.service.request import FactorizationRequest, FactorizationResponse
from repro.service.profiles import (
    BASELINE_PROFILE,
    PROFILE_FIDELITIES,
    check_profile,
    network_factory_for,
)
from repro.service.scheduler import (
    BatchPolicy,
    FactorizationService,
    ServiceStats,
)
from repro.service.sharding import ConsistentHashRing
from repro.service.transport import (
    InProcessTransport,
    Transport,
    request_routing_key,
)
from repro.service.workers import (
    PoolStats,
    ShardedWorkerPool,
    WorkerPoolConfig,
)

__all__ = [
    "BASELINE_PROFILE",
    "BatchPolicy",
    "CodebookRegistry",
    "ConsistentHashRing",
    "FactorizationRequest",
    "FactorizationResponse",
    "FactorizationService",
    "GeometryKey",
    "InProcessTransport",
    "PROFILE_FIDELITIES",
    "PoolStats",
    "RegistryStats",
    "ServeBenchConfig",
    "ServeBenchResult",
    "ServiceStats",
    "ShardedWorkerPool",
    "Transport",
    "WorkerPoolConfig",
    "check_profile",
    "codebook_fingerprint",
    "geometry_key",
    "group_by_geometry",
    "network_factory_for",
    "request_routing_key",
    "run_group",
    "run_problems_grouped",
    "run_serve_bench",
    "seeded_initial_estimates",
]
