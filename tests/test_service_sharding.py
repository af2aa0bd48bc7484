"""Tests for consistent-hash ring placement.

Pins the ring's minimal-movement property over node-id vocabularies -
the contract the cluster tier's shard map rebalancing is built on.
"""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.service import ConsistentHashRing


def fingerprint_corpus(count):
    """Keys shaped like real codebook fingerprints (sha256 hex)."""
    return [
        hashlib.sha256(f"corpus-{index}".encode()).hexdigest()
        for index in range(count)
    ]


class TestNodeRingMinimalMovement:
    """Membership churn moves ~1/N of the key space, never more.

    These are the properties the cluster shard map leans on: hashing
    node *ids* (not dense indices) means a departing node's keys - and
    only its keys - move, and a joining node steals ~1/(N+1) of the
    space uniformly from everyone.
    """

    NODES = [f"node{index}" for index in range(5)]
    CORPUS = 2000

    def test_remove_one_node_remaps_only_its_keys(self):
        keys = fingerprint_corpus(self.CORPUS)
        before = ConsistentHashRing(self.NODES)
        for victim in self.NODES:
            survivors = [n for n in self.NODES if n != victim]
            after = ConsistentHashRing(survivors)
            moved = 0
            for key in keys:
                owner = before.route(key)
                if owner == victim:
                    # Orphaned keys must land somewhere among survivors.
                    assert after.route(key) in survivors
                    moved += 1
                else:
                    # The strong property: a survivor's keys NEVER move -
                    # removing a node deletes only its own ring points.
                    assert after.route(key) == owner
            # The victim owned roughly 1/N of the space (slack for
            # vnode placement variance at vnodes=64).
            assert moved / len(keys) <= 1 / len(self.NODES) + 0.12

    def test_add_one_node_steals_at_most_its_share(self):
        keys = fingerprint_corpus(self.CORPUS)
        before = ConsistentHashRing(self.NODES)
        grown = self.NODES + ["node5"]
        after = ConsistentHashRing(grown)
        moved = 0
        for key in keys:
            if after.route(key) != before.route(key):
                # Every moved key moved TO the newcomer, not sideways.
                assert after.route(key) == "node5"
                moved += 1
        assert 0 < moved / len(keys) <= 1 / len(grown) + 0.12

    def test_successors_are_distinct_prefix_stable(self):
        ring = ConsistentHashRing(self.NODES)
        for key in fingerprint_corpus(64):
            replicas = ring.successors(key, 3)
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.route(key)
            # R and R+1 agree on the shared prefix (growing the
            # replication factor never re-places existing replicas).
            assert ring.successors(key, 4)[:3] == replicas
        # Clamped to the number of distinct owners.
        assert len(ring.successors("key", 99)) == len(self.NODES)
        with pytest.raises(ConfigurationError):
            ring.successors("key", 0)

    def test_node_ring_validation(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing([])
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(["a", "a"])
