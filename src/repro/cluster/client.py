"""Client-side cluster routing: the Transport over a whole fleet.

:class:`ClusterClient` is the fourth :class:`~repro.service.transport.Transport`
implementation, and the contract is unchanged: seeded requests answer
**bit-identically** whether they run in-process, against one HTTP node,
or across an N-node cluster - topology is an operational choice, never a
numerical one.  The digest-parity suite pins this.

Mechanics, per request:

1. route by the codebook fingerprint
   (:func:`~repro.service.transport.request_routing_key`) through the
   current :class:`~repro.cluster.shardmap.ShardMap` - replica set of R
   nodes, one picked deterministically from the request id
   (:meth:`ShardMap.spread <repro.cluster.shardmap.ShardMap.spread>`);
2. send over that node's :class:`~repro.service.http.client.HTTPTransport`
   with the map's epoch stamped on the body;
3. on failure, classify: ``stale_shardmap`` / connection loss /
   ``worker_lost`` / ``unknown_codebook`` / backpressure are recoverable
   - refresh the shard map from the coordinator, replay any codebook
   registrations the rebalance moved
   (:class:`~repro.cluster.replication.RegistrationLedger`), and try
   again (an unreachable node is excluded until a refresh removes it).
   Anything else propagates typed.

Registrations fan out to all R replicas up front, so single-node deaths
leave every hot codebook set resident somewhere and the retry path is a
re-route, not a re-program.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.cluster.replication import RegistrationLedger
from repro.cluster.shardmap import NodeInfo, ShardMap
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ServiceError,
    StaleShardMapError,
    TransportError,
    UnknownCodebookError,
    WorkerLostError,
)
from repro.service.http.client import HTTPTransport, RetryPolicy
from repro.service.request import FactorizationRequest, FactorizationResponse
from repro.service.transport import (
    ResponseOrError,
    Transport,
    request_routing_key,
)
from repro.telemetry import get_log
from repro.vsa.codebook import CodebookSet

#: Failures the cluster loop recovers from by refreshing + re-routing.
_RECOVERABLE = (
    StaleShardMapError,
    TransportError,
    WorkerLostError,
    UnknownCodebookError,
    BackpressureError,
)


@dataclass
class ClusterStats:
    """Routing/recovery counters for one cluster client."""

    #: Requests routed (evaluate calls plus scatter positions).
    routed: int = 0
    #: Shard-map fetches (initial + refreshes).
    refreshes: int = 0
    #: Codebook registrations replayed after rebalances.
    replays: int = 0
    #: Requests re-routed after a recoverable failure.
    rerouted: int = 0
    #: Per-node routed counts (observability for the replication spread).
    per_node: Dict[str, int] = field(default_factory=dict)


class ClusterClient(Transport):
    """Transport that routes over every node of a cluster.

    Parameters
    ----------
    coordinator_url:
        Base URL of the coordinator serving ``/shardmap``.  Omit it only
        with a static ``shard_map`` (refreshes then become no-ops, so a
        dead node stays dead - external orchestration's problem).
    shard_map:
        Initial map, skipping the startup fetch (tests and static
        fleets).
    replication:
        Replica fan-out R for codebook registrations; routing spreads
        over the same R nodes.  Clamped per-key to the cluster size.
    retry:
        Cluster-level recovery policy: attempts = distinct
        route-refresh-reroute rounds per request; the backoff ladder
        (with full jitter) sleeps between rounds.
    node_retry:
        Per-node HTTP policy.  Deliberately short by default (2 attempts)
        - the cluster loop is the real retry authority, and hammering a
        dead node delays failover.
    timeout:
        Default serving deadline forwarded with every request.
    jitter_seed:
        Seeds backoff jitter for reproducible timing (results are
        bit-identical regardless).
    """

    def __init__(
        self,
        coordinator_url: Optional[str] = None,
        *,
        shard_map: Optional[ShardMap] = None,
        replication: int = 2,
        retry: Optional[RetryPolicy] = None,
        node_retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        if coordinator_url is None and shard_map is None:
            raise ConfigurationError(
                "ClusterClient needs a coordinator_url or a static shard_map"
            )
        if replication <= 0:
            raise ConfigurationError(
                f"replication must be positive, got {replication}"
            )
        self.replication = int(replication)
        self.retry = retry if retry is not None else RetryPolicy()
        self.node_retry = (
            node_retry
            if node_retry is not None
            else RetryPolicy(max_attempts=2, backoff_seconds=(0.02, 0.05))
        )
        self.timeout = timeout
        self._jitter_seed = jitter_seed
        self.stats = ClusterStats()
        self._lock = threading.RLock()
        self._ledger = RegistrationLedger()
        self._transports: Dict[str, HTTPTransport] = {}
        self._coordinator = (
            HTTPTransport(
                coordinator_url,
                retry=self.node_retry,
                jitter_seed=jitter_seed,
            )
            if coordinator_url is not None
            else None
        )
        if shard_map is not None:
            self._map = shard_map
        else:
            self._map = self._fetch_map()

    # -- shard map -----------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        """The routing map currently in use."""
        return self._map

    @property
    def epoch(self) -> int:
        """The epoch of the map currently in use."""
        return self._map.epoch

    def _fetch_map(self) -> ShardMap:
        assert self._coordinator is not None
        payload = self._coordinator.request_json("GET", "/shardmap")
        with self._lock:
            self.stats.refreshes += 1
        return ShardMap.from_payload(payload)

    def refresh(self, *, reason: str = "manual") -> ShardMap:
        """Re-fetch the shard map and replay registrations it moved.

        With a static map (no coordinator) this only re-runs the replay
        diff - useful after manual registrations, harmless otherwise.
        Safe to call concurrently; the whole reconcile runs under the
        client lock.
        """
        with self._lock:
            if self._coordinator is not None:
                new_map = self._fetch_map()
                if new_map.epoch >= self._map.epoch:
                    self._map = new_map
            current = self._map
            # Nodes gone from the map may return as fresh processes with
            # empty registries; drop their transports and placement claims.
            for node_id in list(self._transports):
                if node_id not in current:
                    self._transports.pop(node_id).close()
                    self._ledger.forget_node(node_id)
            replayed = 0
            for key, node_id in self._ledger.missing(
                current, self.replication
            ):
                node = current.node(node_id)
                self._node_transport(node, current.epoch).register_codebooks(
                    self._ledger.codebooks(key)
                )
                self._ledger.record(key, node_id)
                replayed += 1
            self.stats.replays += replayed
            log = get_log()
            if log.enabled:
                log.emit(
                    "cluster.refresh",
                    epoch=current.epoch,
                    reason=reason,
                    replayed=replayed,
                )
            return current

    # -- node transports -----------------------------------------------------

    def _node_transport(self, node: NodeInfo, epoch: int) -> HTTPTransport:
        with self._lock:
            transport = self._transports.get(node.node_id)
            if transport is None:
                transport = HTTPTransport(
                    node.url,
                    retry=self.node_retry,
                    timeout=self.timeout,
                    jitter_seed=self._jitter_seed,
                )
                self._transports[node.node_id] = transport
        transport.epoch = epoch
        return transport

    def _pick(
        self,
        request: FactorizationRequest,
        shard_map: ShardMap,
        banned: Set[str],
    ) -> NodeInfo:
        """Route one request: replica set, deterministic spread, bans last.

        The spread choice is a pure function of (key, request id), so
        identically-seeded workloads route identically run over run; bans
        (unreachable nodes awaiting a map refresh) rotate to the next
        replica and never change results, only which node computes them.
        """
        key = request_routing_key(request)
        replicas = shard_map.replicas(
            key, self.replication, fidelity=request.fidelity
        )
        pick = ShardMap.spread(
            key, request.request_id or str(request.seed), len(replicas)
        )
        for offset in range(len(replicas)):
            node = replicas[(pick + offset) % len(replicas)]
            if node.node_id not in banned:
                return node
        # Every replica is banned: try the primary pick anyway rather than
        # failing without an attempt (the ban list resets per call round).
        return replicas[pick]

    def _record_route(self, node: NodeInfo) -> None:
        with self._lock:
            self.stats.routed += 1
            self.stats.per_node[node.node_id] = (
                self.stats.per_node.get(node.node_id, 0) + 1
            )

    # -- Transport implementation --------------------------------------------

    def evaluate(
        self,
        request: FactorizationRequest,
        *,
        timeout: Optional[float] = None,
    ) -> FactorizationResponse:
        """Route, send, and recover until the retry budget is spent."""
        log = get_log()
        banned: Set[str] = set()
        attempt = 0
        while True:
            attempt += 1
            shard_map = self._map
            node = self._pick(request, shard_map, banned)
            transport = self._node_transport(node, shard_map.epoch)
            try:
                response = transport.evaluate(request, timeout=timeout)
            except _RECOVERABLE as error:
                if attempt >= self.retry.max_attempts:
                    raise
                self._recover(error, node, banned)
                continue
            self._record_route(node)
            if log.enabled:
                log.emit(
                    "cluster.route",
                    trace_id=response.trace_id or request.trace_id,
                    node=node.node_id,
                    epoch=shard_map.epoch,
                    attempt=attempt,
                )
            return response

    def _recover(
        self,
        error: ServiceError,
        node: NodeInfo,
        banned: Set[str],
    ) -> None:
        """Refresh/replay/ban according to what just failed."""
        with self._lock:
            self.stats.rerouted += 1
        if isinstance(error, TransportError):
            # Unreachable node: skip it until a refresh drops it from the
            # map (or its heartbeat resurrects it).
            banned.add(node.node_id)
        if isinstance(error, UnknownCodebookError):
            # The node lost (or never had) the set - e.g. a restart under
            # the same id.  Disown the placement so the refresh's replay
            # re-programs it.
            self._ledger.forget_node(node.node_id)
        self.refresh(reason=type(error).__name__)

    def evaluate_scatter(
        self,
        requests: Sequence[FactorizationRequest],
        *,
        timeout: Optional[float] = None,
    ) -> List[ResponseOrError]:
        """Scatter a batch across the fleet; exactly one outcome per slot.

        Requests group by routed node and the groups run concurrently
        (one thread per node).  Failed positions reroute after a
        refresh, like :meth:`evaluate`; exhausted positions keep their
        last typed error.  Slot order always mirrors ``requests``.
        """
        results: List[Optional[ResponseOrError]] = [None] * len(requests)
        open_positions = list(range(len(requests)))
        banned: Set[str] = set()
        attempt = 0
        while open_positions:
            attempt += 1
            shard_map = self._map
            groups: Dict[str, List[int]] = {}
            chosen: Dict[str, NodeInfo] = {}
            for position in open_positions:
                node = self._pick(requests[position], shard_map, banned)
                groups.setdefault(node.node_id, []).append(position)
                chosen[node.node_id] = node

            def _one_group(node_id: str) -> List[ResponseOrError]:
                node = chosen[node_id]
                positions = groups[node_id]
                transport = self._node_transport(node, shard_map.epoch)
                try:
                    return transport.evaluate_scatter(
                        [requests[position] for position in positions],
                        timeout=timeout,
                    )
                except _RECOVERABLE as error:
                    return [error] * len(positions)

            node_ids = sorted(groups)
            if len(node_ids) == 1:
                outcomes = {node_ids[0]: _one_group(node_ids[0])}
            else:
                with ThreadPoolExecutor(
                    max_workers=len(node_ids),
                    thread_name_prefix="h3dfact-cluster",
                ) as pool:
                    futures = {
                        node_id: pool.submit(_one_group, node_id)
                        for node_id in node_ids
                    }
                    outcomes = {
                        node_id: future.result()
                        for node_id, future in futures.items()
                    }

            still_open: List[int] = []
            recovered: Optional[ServiceError] = None
            for node_id in node_ids:
                node = chosen[node_id]
                for position, outcome in zip(
                    groups[node_id], outcomes[node_id]
                ):
                    if not isinstance(outcome, BaseException):
                        results[position] = outcome
                        self._record_route(node)
                        continue
                    if (
                        isinstance(outcome, _RECOVERABLE)
                        and attempt < self.retry.max_attempts
                    ):
                        still_open.append(position)
                        recovered = outcome
                        if isinstance(outcome, TransportError):
                            banned.add(node.node_id)
                        if isinstance(outcome, UnknownCodebookError):
                            self._ledger.forget_node(node.node_id)
                    else:
                        results[position] = outcome
            open_positions = sorted(still_open)
            if open_positions and recovered is not None:
                with self._lock:
                    self.stats.rerouted += len(open_positions)
                self.refresh(reason=type(recovered).__name__)
        return list(results)  # type: ignore[arg-type]

    def register_codebooks(self, codebooks: CodebookSet) -> str:
        """Register onto all R replica owners; returns the content key.

        The key is computed client-side with the same content hash the
        registry uses, so routing never needs a server round trip first;
        each replica's answer is asserted against it (a mismatch would
        mean a wire corruption, not a version skew).
        """
        key = codebooks.fingerprint
        self._ledger.remember(key, codebooks)
        shard_map = self._map
        replicas = shard_map.replicas(key, self.replication)
        for node in replicas:
            answer = self._node_transport(
                node, shard_map.epoch
            ).register_codebooks(codebooks)
            if answer != key:
                raise ServiceError(
                    f"node {node.node_id!r} registered codebooks under "
                    f"{answer!r}, expected {key!r}"
                )
            self._ledger.record(key, node.node_id)
        log = get_log()
        if log.enabled:
            log.emit(
                "cluster.replicate",
                key=key,
                nodes=[node.node_id for node in replicas],
                epoch=shard_map.epoch,
            )
        return key

    def health(self) -> Dict[str, Any]:
        """Fleet liveness: the map plus every node's /health (best effort)."""
        shard_map = self._map
        nodes = {}
        for node in shard_map.nodes:
            try:
                nodes[node.node_id] = self._node_transport(
                    node, shard_map.epoch
                ).health()
            except ServiceError as error:
                nodes[node.node_id] = {
                    "status": "unreachable",
                    "error": str(error),
                }
        status = (
            "ok"
            if all(entry.get("status") == "ok" for entry in nodes.values())
            else "degraded"
        )
        return {
            "status": status,
            "transport": {"transport": "cluster", "epoch": shard_map.epoch},
            "nodes": nodes,
        }

    def metrics(self) -> Dict[str, Any]:
        """Fleet counters: merged node metrics plus this client's stats."""
        from repro.cluster.status import merge_metrics

        shard_map = self._map
        payloads = []
        node_ids = []
        for node in shard_map.nodes:
            try:
                payloads.append(
                    self._node_transport(node, shard_map.epoch).metrics()
                )
                node_ids.append(node.node_id)
            except ServiceError:
                continue
        merged = (
            merge_metrics(payloads, node_ids=node_ids) if payloads else {}
        )
        with self._lock:
            client = {
                "routed": self.stats.routed,
                "refreshes": self.stats.refreshes,
                "replays": self.stats.replays,
                "rerouted": self.stats.rerouted,
                "per_node": dict(self.stats.per_node),
            }
        return {
            "transport": "cluster",
            "epoch": shard_map.epoch,
            "client": client,
            "fleet": merged,
        }

    def close(self) -> None:
        """Drop every node connection (and the coordinator's)."""
        with self._lock:
            for transport in self._transports.values():
                transport.close()
            self._transports.clear()
        if self._coordinator is not None:
            self._coordinator.close()
