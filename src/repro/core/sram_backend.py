"""Tier-1 SRAM/XNOR MVM backends and the heterogeneous hybrid composition.

:class:`SRAMBatchedBackend` runs the resonator's similarity MVM the way
the paper's digital tier does (Sec. III-A/III-B): queries and codebooks
bit-packed 64 lanes per word, XNOR via XOR on the bit encoding, and the
"-1's counter" identity ``dot = n - 2k`` evaluated by a popcount per
codebook column (:mod:`repro.cim.sram.batched`).  The projection MVM is
the digital adder tree on the same stored bit-planes: an exact integer
matmul (executed as a float64 GEMM, exact for integer sums below 2**53,
immune to BLAS blocking order).  Everything is deterministic and integer
-valued, so seeded batched runs are bit-identical to the per-trial
sequential loop (``H3DFACT_ENGINE=sequential``) *and* to the per-cell
reference units - :class:`SRAMPerCellBackend` wraps those directly and
the equivalence is pinned by ``tests/test_sram_backend.py``.

:class:`HybridTierBackend` composes two backends into one heterogeneous
stack - similarity on one tier, projection on another - so a single
factorization run can span tiers like the paper's 3D integration.  The
engine's ``fidelity="hybrid"`` point pairs the digital SRAM similarity
tier with the full RRAM crossbar projection tier, the GEM3D-style
SRAM-(e)DRAM-flavoured mixed stack used as a Table II / ablation
companion configuration (PAPERS.md: GEM3D-CIM).

Op accounting
-------------
The SRAM backends count the work the timing/energy models charge for:
``xnor_words`` / ``popcount_words`` (packed words streamed through the
XOR + popcount pipeline), ``dot_products`` (counter-identity columns) and
``projection_macs`` (adder-tree multiply-accumulates).  The counts are
exact functions of the MVM shapes, identical however the batch is packed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.cim.sram.batched import (
    PACKED_CODEBOOK_CACHE,
    PackedCodebook,
    PackedCodebookCache,
    pack_bipolar,
    xnor_popcount_mvm,
)
from repro.cim.sram.counter import NegOnesCounter
from repro.resonator.backends import (
    STACKS,
    CodebookBatch,
    MVMBackend,
    batch_geometry,
    codebooks_per_trial,
)
from repro.vsa.codebook import Codebook


def _float64_matrix(codebook: Codebook) -> np.ndarray:
    """Float64 projection operand (exact integer sums below 2**53)."""
    return codebook.matrix.astype(np.float64)


class SRAMBatchedBackend(MVMBackend):
    """Word-parallel digital tier-1 MVMs (module docstring).

    Parameters
    ----------
    cache:
        Packed-codebook store; defaults to the process-wide
        :data:`~repro.cim.sram.batched.PACKED_CODEBOOK_CACHE`.
    """

    deterministic = True

    def __init__(self, *, cache: Optional[PackedCodebookCache] = None) -> None:
        self.cache = cache if cache is not None else PACKED_CODEBOOK_CACHE
        #: Packed words streamed through the XNOR (XOR) gates.
        self.xnor_words = 0
        #: Packed words popcounted by the -1's counters.
        self.popcount_words = 0
        #: Counter-identity dot products (one per codebook column).
        self.dot_products = 0
        #: Integer multiply-accumulates of the projection adder tree.
        self.projection_macs = 0

    # -- packed / projection operands --------------------------------------

    def packed_for(self, codebook: Codebook) -> PackedCodebook:
        """This backend's frozen tier-1 bit-planes of ``codebook``."""
        return self.cache.get(codebook)

    def _proj_stack(self, books: Sequence[Codebook]) -> np.ndarray:
        return STACKS.get(
            "float64",
            books,
            lambda: np.stack([book.matrix.astype(np.float64) for book in books]),
        )

    # -- MVMs --------------------------------------------------------------
    # The batch methods are the single authoritative implementation; the
    # scalar methods run a one-row batch, so sequential and batched
    # engines execute the very same kernels (bit-identity for free).

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        """One-row batch of :meth:`similarity_batch` (same kernel)."""
        return self.similarity_batch(codebook, np.asarray(query)[None])[0]

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        """One-row batch of :meth:`project_batch` (same kernel)."""
        return self.project_batch(codebook, np.asarray(weights)[None])[0]

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        """Packed XNOR + popcount similarities, int64 ``(trials, size)``."""
        queries = np.asarray(queries)
        trials = len(queries)
        dim, size = batch_geometry(codebooks)
        packed_queries = pack_bipolar(queries)
        if isinstance(codebooks, Codebook):
            packed = self.packed_for(codebooks)
            sims = xnor_popcount_mvm(packed.items, packed_queries, dim)
        else:
            books = codebooks_per_trial(codebooks, trials)
            sims = np.empty((trials, size), dtype=np.int64)
            for t, book in enumerate(books):
                sims[t] = xnor_popcount_mvm(
                    self.packed_for(book).items,
                    packed_queries[t : t + 1],
                    dim,
                )[0]
        words = packed_queries.shape[-1]
        self.xnor_words += trials * size * words
        self.popcount_words += trials * size * words
        self.dot_products += trials * size
        return sims

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        """Adder-tree projection ``X a``: exact integers, int64 output."""
        weights = np.asarray(weights, dtype=np.float64)
        trials = len(weights)
        dim, size = batch_geometry(codebooks)
        if isinstance(codebooks, Codebook):
            values = weights @ codebooks.derived(_float64_matrix).T
        else:
            books = codebooks_per_trial(codebooks, trials)
            stack = self._proj_stack(books)
            values = np.matmul(stack, weights[:, :, None])[:, :, 0]
        self.projection_macs += trials * dim * size
        return values.astype(np.int64)

    def __repr__(self) -> str:
        return f"SRAMBatchedBackend(cache={self.cache!r})"


class SRAMPerCellBackend(MVMBackend):
    """Reference tier-1 backend built from the per-cell units.

    Similarity routes through :class:`~repro.cim.sram.counter.NegOnesCounter`
    (one counter column at a time, operands validated as bipolar) and the
    projection through an explicit int64 adder tree.  Batch execution
    inherits the base class's per-trial loop.  This is the semantic ground
    truth the vectorized backend must match bit for bit - slow, simple,
    and only used by tests and the equivalence suite.
    """

    deterministic = True

    def __init__(self) -> None:
        self._counters: Dict[int, NegOnesCounter] = {}

    def _counter(self, width: int) -> NegOnesCounter:
        counter = self._counters.get(width)
        if counter is None:
            counter = NegOnesCounter(width)
            self._counters[width] = counter
        return counter

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        """Counter-identity dots, one -1's counter column per item."""
        counter = self._counter(codebook.dim)
        return counter.similarity_vector(codebook.matrix, np.asarray(query))

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        """Int64 adder-tree projection ``X a`` over rounded weights."""
        weights = np.asarray(weights)
        matrix = codebook.matrix.astype(np.int64)
        return matrix @ np.rint(weights).astype(np.int64)

    def __repr__(self) -> str:
        return "SRAMPerCellBackend()"


class HybridTierBackend(MVMBackend):
    """Heterogeneous-tier composition: similarity and projection on
    different backends, one resonator run spanning the 3D stack.

    The trial-lifecycle hooks (``begin_trial`` / ``bind_trials`` /
    ``select_trials``) forward to both tiers so stochastic members keep
    their per-trial noise streams - the packing-independence contract of
    :class:`~repro.core.crossbar_backend.CIMBatchedBackend` survives the
    composition, and with it the cross-engine bit-identity of seeded runs.
    """

    def __init__(
        self,
        *,
        similarity_backend: MVMBackend,
        projection_backend: MVMBackend,
    ) -> None:
        self.similarity_backend = similarity_backend
        self.projection_backend = projection_backend
        self.deterministic = (
            similarity_backend.deterministic and projection_backend.deterministic
        )
        self.supports_complex = (
            similarity_backend.supports_complex
            and projection_backend.supports_complex
        )

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        """Similarity on the similarity tier."""
        return self.similarity_backend.similarity(codebook, query)

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        """Projection on the projection tier."""
        return self.projection_backend.project(codebook, weights)

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        """Batched similarity on the similarity tier."""
        return self.similarity_backend.similarity_batch(codebooks, queries)

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        """Batched projection on the projection tier."""
        return self.projection_backend.project_batch(codebooks, weights)

    def begin_trial(self) -> None:
        """Advance the per-trial state of both tiers."""
        self.similarity_backend.begin_trial()
        self.projection_backend.begin_trial()

    def bind_trials(self, seeds: Sequence[int]) -> None:
        """Bind per-trial seed streams on both tiers."""
        self.similarity_backend.bind_trials(seeds)
        self.projection_backend.bind_trials(seeds)

    def select_trials(self, rows: np.ndarray) -> None:
        """Narrow both tiers to the still-active trial rows."""
        self.similarity_backend.select_trials(rows)
        self.projection_backend.select_trials(rows)

    def similarity_flops(self, codebooks: CodebookBatch) -> int:
        """Flop count of one similarity MVM on the similarity tier."""
        return self.similarity_backend.similarity_flops(codebooks)

    def project_flops(self, codebooks: CodebookBatch) -> int:
        """Flop count of one projection MVM on the projection tier."""
        return self.projection_backend.project_flops(codebooks)

    def __repr__(self) -> str:
        return (
            f"HybridTierBackend(similarity={self.similarity_backend!r}, "
            f"projection={self.projection_backend!r})"
        )
