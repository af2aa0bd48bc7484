"""Codebooks are immutable values with a content identity.

Pins the contract every cache of derived operands relies on: a codebook
owns a read-only matrix, hashes its content at most once, keeps that
identity across pickling, and backends key what they derive from it on
content - never on ``id()``, which CPython recycles as soon as an object
is freed.
"""

import dataclasses
import pickle

import numpy as np
import pytest

import repro.vsa.codebook as codebook_module
from repro.resonator.backends import ExactBackend, PhasorBackend, StackCache
from repro.resonator.stochastic import ThresholdPolicy
from repro.service import CodebookRegistry
from repro.vsa.codebook import (
    Codebook,
    CodebookSet,
    codebook_fingerprint,
    codebook_set_fingerprint,
)

#: Digests of seeded codebooks, fixed since before codebooks were frozen.
#: The format seeds crossbar programming, so it must never drift.
PINNED = {
    "bipolar": "fe243a0d9ff46d194c917a9e5d7dc3984883c858a1e846b4b2886c94d4a7266b",
    "fhrr": "22bce1a15417b343deeb40110d0ecf9c2a3356419a37817cd99ad2c34cfabc10",
    "set": "56fe26bed6446aeb0d0cf5d234811231d9ea6edf86a2fc0f5b6d6eddad62721d",
    "fhrr_set": "80cbbed2a361004653d41f0e2d3e6be34e677beaef948cc312f46b461f9947a6",
}


class TestFrozenValue:
    def test_matrix_is_read_only(self):
        cb = Codebook.random("c", 32, 4, rng=0)
        with pytest.raises(ValueError):
            cb.matrix[0, 0] = -cb.matrix[0, 0]
        with pytest.raises(ValueError):
            cb.vector(1)[0] = 1

    def test_fields_cannot_be_rebound(self):
        cb = Codebook.random("c", 32, 4, rng=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cb.matrix = np.ones((32, 4))
        books = CodebookSet([cb])
        with pytest.raises(dataclasses.FrozenInstanceError):
            books.codebooks = ()
        assert isinstance(books.codebooks, tuple)

    def test_caller_array_stays_writeable_and_detached(self):
        matrix = np.where(np.random.default_rng(0).random((16, 3)) < 0.5, -1, 1)
        cb = Codebook("c", matrix)
        assert matrix.flags.writeable
        before = cb.fingerprint
        matrix[0, 0] = -matrix[0, 0]  # the codebook holds its own copy
        assert cb.matrix[0, 0] == -matrix[0, 0]
        assert codebook_fingerprint(cb) == before

    @pytest.mark.parametrize("algebra", ["bipolar", "fhrr"])
    def test_pickle_round_trip_stays_frozen(self, algebra):
        books = CodebookSet.random(32, [3, 5], rng=1, algebra=algebra)
        copy = pickle.loads(pickle.dumps(books))
        assert copy.fingerprint == books.fingerprint
        for original, restored in zip(books, copy):
            assert not restored.matrix.flags.writeable
            assert restored.fingerprint == original.fingerprint
            assert restored.labels == original.labels
        single = pickle.loads(pickle.dumps(books[0]))
        assert not single.matrix.flags.writeable
        assert single.fingerprint == books[0].fingerprint

    def test_derived_operands_stay_out_of_pickles(self):
        cb = Codebook.random("c", 32, 4, rng=1)
        ExactBackend().matrix32(cb)  # float32 copies now live on the value
        payload = pickle.dumps(cb)
        assert len(payload) < cb.matrix.nbytes + 1024
        assert "_derived" not in vars(pickle.loads(payload))

    def test_codebook_hashes_once(self, monkeypatch):
        calls = []

        def counting(codebook):
            calls.append(codebook)
            return codebook_fingerprint(codebook)

        monkeypatch.setattr(codebook_module, "codebook_fingerprint", counting)
        cb = Codebook.random("c", 64, 8, rng=2)
        backend = ExactBackend()
        query = cb.vector(0).astype(np.float32)
        for _ in range(5):
            assert cb.fingerprint == codebook_fingerprint(cb)  # unpatched
            backend.similarity(cb, query)
            backend.similarity_batch([cb, cb], np.stack([query, query]))
        assert calls == [cb]

    def test_set_hashes_once(self, monkeypatch):
        calls = []

        def counting(books):
            calls.append(books)
            return codebook_set_fingerprint(books)

        monkeypatch.setattr(codebook_module, "codebook_set_fingerprint", counting)
        books = CodebookSet.random(64, [4, 4], rng=3)
        registry = CodebookRegistry()
        keys = {registry.register(books) for _ in range(5)}
        assert keys == {books.fingerprint}
        assert len(calls) == 1

    def test_pinned_digests(self):
        assert Codebook.random("a", 64, 8, rng=7).fingerprint == PINNED["bipolar"]
        phasors = Codebook.random("p", 32, 4, rng=7, algebra="fhrr")
        assert phasors.fingerprint == PINNED["fhrr"]
        assert CodebookSet.random(64, [4, 6], rng=7).fingerprint == PINNED["set"]
        fhrr_set = CodebookSet.random(32, [3, 5], rng=7, algebra="fhrr")
        assert fhrr_set.fingerprint == PINNED["fhrr_set"]


class TestContentKeyedOperands:
    """Fresh codebooks in sequence: freed ids get recycled immediately."""

    COUNT = 2000

    def test_exact_backend_never_serves_another_codebooks_matrix(self):
        backend = ExactBackend()
        rng = np.random.default_rng(4)
        query = np.where(rng.random(64) < 0.5, -1, 1)
        stale = 0
        for _ in range(self.COUNT):
            cb = Codebook.random("c", 64, 8, rng=rng)
            expected = cb.matrix.T.astype(np.int64) @ query
            stale += not np.array_equal(backend.similarity(cb, query), expected)
        assert stale == 0

    def test_phasor_backend_never_serves_another_codebooks_matrix(self):
        backend = PhasorBackend()
        rng = np.random.default_rng(5)
        query = Codebook.random("q", 32, 1, rng=rng, algebra="fhrr").vector(0)
        stale = 0
        for _ in range(self.COUNT):
            cb = Codebook.random("c", 32, 4, rng=rng, algebra="fhrr")
            expected = np.real(cb.matrix.conj().T @ query)
            got = backend.similarity(cb, query)
            stale += not np.allclose(got, expected, rtol=0, atol=1e-12)
        assert stale == 0

    def test_stacks_of_fresh_codebooks_are_never_stale(self):
        backend = ExactBackend()
        rng = np.random.default_rng(6)
        queries = np.where(rng.random((3, 32)) < 0.5, -1, 1)
        for _ in range(300):
            books = [Codebook.random("c", 32, 4, rng=rng) for _ in range(3)]
            expected = np.stack(
                [b.matrix.T.astype(np.int64) @ q for b, q in zip(books, queries)]
            )
            assert np.array_equal(backend.similarity_batch(books, queries), expected)

    def test_equal_content_shares_one_stack(self):
        matrix = Codebook.random("c", 48, 6, rng=6).matrix
        first, second = Codebook("a", matrix), Codebook("b", matrix)
        backend = ExactBackend()
        assert backend.stack32([first, second]) is backend.stack32([second, first])

    def test_stack_store_is_bounded_lru(self):
        cache = StackCache(max_entries=3)
        books = [Codebook.random("c", 8, 2, rng=seed) for seed in range(11)]
        for index in range(10):
            cache.get("kind", [books[index]], lambda: np.full(4, index))
        assert len(cache) == 3
        assert cache.get("kind", [books[7]], lambda: None)[0] == 7  # cached
        cache.get("kind", [books[10]], lambda: np.zeros(4))  # evicts 8, not 7
        assert cache.get("kind", [books[8]], lambda: np.full(4, -1))[0] == -1


class TestThresholdQuantile:
    @pytest.mark.parametrize("size", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_matches_scipy(self, size):
        from scipy.stats import norm

        policy = ThresholdPolicy()
        tail = min(0.5, policy.target_pass_count / size)
        expected = float(norm.isf(tail) * np.sqrt(1024 * (1.0 + 0.25**2)))
        for _ in range(2):  # the memoized second read is the same value
            assert policy.threshold(1024, size, 0.25) == expected
