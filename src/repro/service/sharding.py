"""Consistent-hash routing of live traffic onto shards and nodes.

The :class:`ConsistentHashRing` is what the serving tier's
:class:`~repro.service.workers.ShardedWorkerPool` routes requests with,
and what the cluster shard map (:mod:`repro.cluster.shardmap`) places
codebook sets with.  Routing hashes the *codebook fingerprint*, so every
request against one codebook set lands on the shard that programmed it
(program-once amortization survives sharding), and the ring's virtual
nodes keep the key space balanced and mostly stable when the shard count
changes.  Requests are seeded individually, so a request's outcome is
independent of which shard ran it and of the shard count.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple, Union

from repro.errors import ConfigurationError


class ConsistentHashRing:
    """Consistent hashing of string keys onto shard indices or node ids.

    Each owner contributes ``vnodes`` virtual points on a sha256 ring; a
    key routes to the first point clockwise of its own hash.  Two owner
    vocabularies share the implementation:

    * ``ConsistentHashRing(4)`` - dense integer shard indices, the
      single-host worker pool's vocabulary (tokens ``shard:i:vnode:r``);
    * ``ConsistentHashRing(["node-a", "node-b"])`` - string node ids, the
      cluster shard map's vocabulary (tokens ``node:<id>:vnode:r``).
      Hashing the node *id* (not a dense index) is what makes membership
      churn minimal-movement: removing a node deletes only its own
      virtual points, so only the keys on its arcs move.

    The construction is deterministic (a pure function of the owners and
    ``vnodes``), so every frontend - and every test - computes the same
    placement, and growing the ring from N to N+1 owners moves only
    ~1/(N+1) of the key space (pinned by the minimal-movement property
    test in ``tests/test_service_sharding.py``).
    """

    def __init__(
        self, shards: Union[int, Sequence[str]], *, vnodes: int = 64
    ) -> None:
        if vnodes <= 0:
            raise ConfigurationError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = int(vnodes)
        if isinstance(shards, int):
            if shards <= 0:
                raise ConfigurationError(
                    f"shards must be positive, got {shards}"
                )
            self.shards = int(shards)
            owners: List[Union[int, str]] = list(range(self.shards))
            tokens = [f"shard:{owner}" for owner in owners]
        else:
            names = [str(name) for name in shards]
            if not names:
                raise ConfigurationError("node ring needs at least one node id")
            if len(set(names)) != len(names):
                raise ConfigurationError(f"duplicate node ids in {names}")
            self.shards = len(names)
            owners = list(names)
            tokens = [f"node:{owner}" for owner in owners]
        self.owners: Tuple[Union[int, str], ...] = tuple(owners)
        points = []
        for owner, token in zip(owners, tokens):
            for replica in range(self.vnodes):
                point = f"{token}:vnode:{replica}".encode("utf-8")
                points.append((self._hash(point), owner))
        points.sort(key=lambda pair: (pair[0], str(pair[1])))
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _hash(data: bytes) -> int:
        """First 8 bytes of sha256 as the ring position."""
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def route(self, key: str) -> Union[int, str]:
        """The owner of ``key`` (e.g. a codebook fingerprint).

        Returns a shard index for integer-constructed rings, a node id
        for node-id rings.
        """
        position = self._hash(key.encode("utf-8"))
        index = bisect.bisect_right(self._hashes, position)
        if index == len(self._hashes):
            index = 0
        return self._owners[index]

    def successors(self, key: str, count: int) -> List[Union[int, str]]:
        """The first ``count`` *distinct* owners clockwise of ``key``.

        The replica set of the cluster tier: entry 0 is the primary
        (identical to :meth:`route`), the rest are the ring successors a
        replication factor R > 1 fans registrations out to.  ``count`` is
        clamped to the number of distinct owners.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        position = self._hash(key.encode("utf-8"))
        start = bisect.bisect_right(self._hashes, position)
        owners: List[Union[int, str]] = []
        seen = set()
        for step in range(len(self._owners)):
            owner = self._owners[(start + step) % len(self._owners)]
            if owner in seen:
                continue
            seen.add(owner)
            owners.append(owner)
            if len(owners) >= min(count, self.shards):
                break
        return owners

    def __repr__(self) -> str:
        return f"ConsistentHashRing(shards={self.shards}, vnodes={self.vnodes})"
