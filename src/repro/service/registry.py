"""Content-addressed codebook registry with LRU eviction.

In hardware, a codebook set is *programmed* into the RRAM tiers once and
then serves an unbounded stream of queries (Sec. IV-A; the program-once /
query-many economics of in-memory factorization).  The software analogue
is interning: the registry keys every :class:`~repro.vsa.codebook.CodebookSet`
by a content hash, so repeated traffic against equal-content codebooks is
routed to one canonical instance.  Canonicalization is what lets the
scheduler detect the shared-codebook situation across independent requests
(`problem.codebooks is first_set`) and run the whole batch as one GEMM
against a single programmed array.

Capacity is bounded: the registry holds at most ``capacity`` sets and
evicts least-recently-used entries (re-programming cost is paid again if
an evicted set returns).  In-flight batches keep their own references, so
eviction never invalidates running work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError, UnknownCodebookError
from repro.telemetry import get_log
from repro.vsa.codebook import CodebookSet


def codebook_fingerprint(codebooks: CodebookSet) -> str:
    """Stable content hash of a codebook set - the registry's key format.

    Two sets with identical factor names, sizes and item vectors map to
    the same key regardless of object identity - the "same arrays would be
    programmed" equivalence.  The hash itself lives at the VSA layer
    (:func:`repro.vsa.codebook.codebook_set_fingerprint`) so that lower
    layers - notably the crossbar conductance cache of
    :mod:`repro.core.crossbar_backend` - key off the same content identity
    without importing the serving stack.  Sets are immutable, so this is
    the set's cached :attr:`~repro.vsa.codebook.CodebookSet.fingerprint`.
    """
    return codebooks.fingerprint


@dataclass
class RegistryStats:
    """Hit/miss/eviction counters for one registry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without re-programming."""
        return self.hits / self.lookups if self.lookups else 0.0


class CodebookRegistry:
    """LRU cache of canonical codebook sets keyed by content hash."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"registry capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, CodebookSet]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = RegistryStats()

    def intern(self, codebooks: CodebookSet) -> Tuple[str, CodebookSet, bool]:
        """Canonicalize ``codebooks``; returns ``(key, canonical, hit)``.

        A hit returns the already-programmed instance (and refreshes its
        recency); a miss programs this instance, evicting the
        least-recently-used set if the registry is at capacity.
        """
        key = codebooks.fingerprint
        evicted = 0
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                hit = True
            else:
                self.stats.misses += 1
                self._entries[key] = codebooks
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                    evicted += 1
                cached, hit = codebooks, False
        log = get_log()
        if log.enabled:
            log.emit(
                "registry.hit" if hit else "registry.miss",
                key=key[:16],
                entries=len(self._entries),
            )
            for _ in range(evicted):
                log.emit("registry.eviction", capacity=self.capacity)
        return key, cached, hit

    def register(self, codebooks: CodebookSet) -> str:
        """Intern ``codebooks`` and return the registry key."""
        key, _, _ = self.intern(codebooks)
        return key

    def get(self, key: str) -> CodebookSet:
        """Look up a previously registered set by key.

        Raises :class:`~repro.errors.UnknownCodebookError` (a retryable
        :class:`~repro.errors.ServiceError`) on a miss - over the wire
        this surfaces as HTTP 404 with a typed envelope.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        log = get_log()
        if log.enabled:
            log.emit(
                "registry.hit" if cached is not None else "registry.miss",
                key=key[:16],
                entries=len(self._entries),
            )
        if cached is None:
            raise UnknownCodebookError(
                f"no codebook set registered under key {key[:16]!r}... "
                "(evicted, or never registered)"
            )
        return cached

    def keys(self) -> Tuple[str, ...]:
        """Registered content-hash keys, least- to most-recently used.

        The cluster tier's replication replay reads this to decide which
        sets a node already holds (re-registering a held key is a cheap
        registry hit, so replay is idempotent).
        """
        with self._lock:
            return tuple(self._entries.keys())

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"CodebookRegistry(capacity={self.capacity}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"evictions={self.stats.evictions})"
        )
