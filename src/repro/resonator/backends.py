"""MVM backends: how the resonator's two matrix products are computed.

The resonator needs, per factor and per iteration:

* ``similarity(codebook, query)``  -> ``a = X^T u``  (step II of Fig. 3)
* ``project(codebook, weights)``   -> ``y = X a``    (step IV of Fig. 3)

Backends let the same algorithm run on an exact software oracle, on additive
Gaussian-noise models, on quantizing (ADC) models, on the aggregate
statistical CIM model (:class:`repro.core.cim_backend.CIMBackend`), or on
the full tiled crossbar simulation
(:class:`repro.core.crossbar_backend.CIMBatchedBackend`).  Table II's
"Baseline" column is the rectified deterministic configuration; the "H3D"
column runs the full crossbar backend, whose behaviour is bracketed in
tests by the intermediate models here (see the "Fidelity spectrum" section
of the README and ``docs/ARCHITECTURE.md``).

Batched execution
-----------------
Every backend additionally exposes ``similarity_batch`` / ``project_batch``,
operating on a stacked ``(trials, dim)`` query matrix (respectively a
``(trials, size)`` weight matrix) and returning the per-trial results
stacked the same way.  This is the software analogue of the paper's
Sec. IV-A batch operation: tier-1's SRAM buffers let the hardware stream a
whole batch of queries through one programmed array, and in software the
same structure turns ``trials`` interpreter-bound mat-vecs into a single
BLAS mat-mat call.

``codebooks`` may be either

* a single :class:`~repro.vsa.codebook.Codebook` - all trials query the
  same programmed array (the ``share_codebooks`` hardware situation), or
* a sequence of per-trial codebooks of identical shape - each trial owns
  its own array; the exact backend stacks them into a ``(T, D, M)`` tensor
  and uses batched matmul.

The base-class default falls back to a per-trial loop, so custom backends
stay correct without writing vectorized code; :class:`ExactBackend` and the
noise / quantizing backends override it with true vectorized
implementations.  For bipolar codebooks and integer-valued inputs all
float32 sums stay below 2**24, so the vectorized results are *bit-exact*
equal to the per-trial loop for deterministic backends (asserted by
``tests/test_backend_batch_equivalence.py``).

Backends also report the exact flop cost of their MVMs
(:meth:`MVMBackend.similarity_flops` / :meth:`MVMBackend.project_flops`),
which the networks feed to the deterministic op-count profiler
(:mod:`repro.resonator.profiler`) - the basis of Fig. 1c's breakdown.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DimensionError
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_positive
from repro.vsa.codebook import Codebook

#: A shared codebook, or one codebook per trial (all of identical shape).
CodebookBatch = Union[Codebook, Sequence[Codebook]]


def codebooks_per_trial(codebooks: CodebookBatch, trials: int) -> List[Codebook]:
    """Expand ``codebooks`` to one :class:`Codebook` per trial.

    A single codebook is shared by every trial; a sequence must have one
    entry per trial and all entries must agree on ``(dim, size)`` so the
    batch can be expressed as stacked matrix products.
    """
    if isinstance(codebooks, Codebook):
        return [codebooks] * trials
    books = list(codebooks)
    if len(books) != trials:
        raise DimensionError(
            f"{len(books)} codebooks provided for {trials} trials"
        )
    shapes = {(book.dim, book.size) for book in books}
    if len(shapes) != 1:
        raise DimensionError(
            f"per-trial codebooks must share (dim, size); got {sorted(shapes)}"
        )
    return books


def batch_geometry(codebooks: CodebookBatch) -> Tuple[int, int]:
    """``(dim, size)`` of a codebook batch (shared or per-trial)."""
    if isinstance(codebooks, Codebook):
        return codebooks.dim, codebooks.size
    books = list(codebooks)
    if not books:
        raise DimensionError("empty codebook batch")
    return books[0].dim, books[0].size


class MVMBackend(ABC):
    """Computes the resonator's similarity and projection MVMs."""

    #: True if repeated calls with identical inputs return identical outputs.
    deterministic: bool = True

    #: True if the backend accepts complex (FHRR) codebooks and queries.
    #: The float32 fast paths of the bipolar backends silently destroy
    #: imaginary parts, so the networks refuse to route complex states
    #: through a backend that does not raise this flag.
    supports_complex: bool = False

    @abstractmethod
    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        """Return ``X^T query`` (length ``codebook.size``), possibly noisy."""

    @abstractmethod
    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        """Return ``X weights`` (length ``codebook.dim``), possibly noisy."""

    def begin_trial(self) -> None:
        """Hook called once per factorization trial (e.g. re-program arrays)."""

    # -- per-trial noise identity (default: no-op) -------------------------
    #
    # Stochastic backends that want packing-independent noise override
    # these: the replay layer binds one stream per request seed, and the
    # batched network declares which global trial each stacked row of the
    # next batch calls belongs to.  Deterministic backends ignore both.

    def bind_trials(self, seeds: Sequence[int]) -> None:
        """Associate per-trial noise streams with the given request seeds."""

    def select_trials(self, rows: np.ndarray) -> None:
        """Declare the global trial index of each row in upcoming batches."""

    # -- batched execution (default: per-trial loop) -----------------------

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        """Stacked ``X^T query`` for a ``(trials, dim)`` query matrix.

        Returns a ``(trials, size)`` array.  The default implementation
        loops over trials; vectorizing subclasses must match it exactly
        (deterministic backends) or statistically (noisy backends).
        """
        queries = np.asarray(queries)
        books = codebooks_per_trial(codebooks, len(queries))
        return np.stack(
            [self.similarity(book, query) for book, query in zip(books, queries)]
        )

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        """Stacked ``X weights`` for a ``(trials, size)`` weight matrix.

        Returns a ``(trials, dim)`` array; see :meth:`similarity_batch`.
        """
        weights = np.asarray(weights)
        books = codebooks_per_trial(codebooks, len(weights))
        return np.stack(
            [self.project(book, weight) for book, weight in zip(books, weights)]
        )

    # -- deterministic cost model (consumed by the profiler) ----------------

    def similarity_flops(self, codebooks: CodebookBatch) -> int:
        """Exact flops of one similarity MVM per trial (2 per MAC)."""
        dim, size = batch_geometry(codebooks)
        return 2 * dim * size

    def project_flops(self, codebooks: CodebookBatch) -> int:
        """Exact flops of one projection MVM per trial (2 per MAC)."""
        dim, size = batch_geometry(codebooks)
        return 2 * dim * size


class StackCache:
    """Process-wide LRU of per-trial operand stacks, keyed by content.

    A batched run over per-trial codebooks multiplies against a stacked
    ``(T, ...)`` tensor built from every trial's codebook (float32
    matrices, float64 matrices, programmed conductances).  The tensor is
    built once per active trial set and reused on every sweep.  The key
    is a kind tag (plus whatever configuration the operand depends on)
    and the tuple of the codebooks' fingerprints.  Codebooks are
    immutable, so an entry can never go stale, equal codebook batches
    share one entry, and eviction only costs a rebuild.

    The bound counts entries, not bytes: a sweep cycles through one stack
    per factor for the compute backend and one for the decoder (eight at
    the paper's largest F = 4), and an LRU smaller than that cycle would
    rebuild every stack on every sweep, however large.  The default
    leaves room for one active-set compaction on top.
    """

    def __init__(self, max_entries: int = 12) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(
        self, kind: Hashable, books: Sequence[Codebook], build: Callable[[], Any]
    ) -> Any:
        """The ``kind`` stack of ``books``, built by ``build()`` on first sight."""
        # No lock: worker processes are forked from threaded parents, and a
        # child that inherits a held lock deadlocks on its first lookup.
        # Each step is one OrderedDict call, atomic under the GIL; a race
        # costs at most a rebuild or one extra eviction.
        key = (kind, tuple(book.fingerprint for book in books))
        entries = self._entries
        value = entries.get(key)
        if value is None:
            value = entries.setdefault(key, build())
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
        else:
            try:
                entries.move_to_end(key)
            except KeyError:  # evicted by another thread meanwhile
                pass
        return value

    def __len__(self) -> int:
        return len(self._entries)


#: The one stack store every backend shares.
STACKS = StackCache()


def _float32_pair(codebook: Codebook) -> Tuple[np.ndarray, np.ndarray]:
    matrix = codebook.matrix.astype(np.float32)
    return matrix, matrix.T.copy()


def _conjugate_transpose(codebook: Codebook) -> np.ndarray:
    return np.ascontiguousarray(codebook.matrix.conj().T)


class ExactBackend(MVMBackend):
    """Bit-exact software MVMs - the deterministic baseline resonator.

    Float32 copies of the codebooks (kept on each codebook, stacks in
    :data:`STACKS`) keep every MVM on the BLAS fast path.
    """

    deterministic = True

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        _, transposed = codebook.derived(_float32_pair)
        return transposed @ np.asarray(query, dtype=np.float32)

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        matrix, _ = codebook.derived(_float32_pair)
        return matrix @ np.asarray(weights, dtype=np.float32)

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float32)
        if isinstance(codebooks, Codebook):
            matrix, _ = codebooks.derived(_float32_pair)
            return queries @ matrix
        stack = self.stack32(codebooks_per_trial(codebooks, len(queries)))
        return np.matmul(queries[:, None, :], stack)[:, 0, :]

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float32)
        if isinstance(codebooks, Codebook):
            _, transposed = codebooks.derived(_float32_pair)
            return weights @ transposed
        stack = self.stack32(codebooks_per_trial(codebooks, len(weights)))
        return np.matmul(stack, weights[:, :, None])[:, :, 0]

    def matrix32(self, codebook: Codebook) -> np.ndarray:
        """Cached float32 view of ``codebook.matrix`` (``(dim, size)``)."""
        matrix, _ = codebook.derived(_float32_pair)
        return matrix

    def stack32(self, books: Sequence[Codebook]) -> np.ndarray:
        """Cached float32 ``(trials, dim, size)`` tensor of per-trial books."""
        return STACKS.get(
            "float32",
            books,
            lambda: np.stack([book.matrix.astype(np.float32) for book in books]),
        )

    def __repr__(self) -> str:
        return "ExactBackend()"


class PhasorBackend(MVMBackend):
    """Exact complex MVMs for the FHRR (phasor) resonator.

    * ``similarity`` - ``Re(X^H u)``: the real part of the Hermitian inner
      product of the unbound estimate with every item phasor (step II).
    * ``project``    - ``X a`` with *real* similarity weights against the
      complex item matrix (step IV).

    The batched variants deliberately inherit the base class's per-trial
    loop: running each stacked row through the *same* numpy call sequence
    as the sequential engine is what makes batched/sequential FHRR runs
    bit-identical (``tests/test_phasor_engine_parity.py``), the complex
    analogue of the float32 exactness argument for bipolar backends.

    Flop accounting uses 8 real flops per complex-complex MAC (similarity)
    and 4 per complex-real MAC (projection), so profiler totals remain
    exact and machine-independent.
    """

    deterministic = True
    supports_complex = True

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.complex128)
        return np.real(codebook.derived(_conjugate_transpose) @ query)

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64)
        return codebook.matrix @ weights

    def similarity_flops(self, codebooks: CodebookBatch) -> int:
        """8 real flops per complex-complex MAC of ``Re(X^H u)``."""
        dim, size = batch_geometry(codebooks)
        return 8 * dim * size

    def project_flops(self, codebooks: CodebookBatch) -> int:
        """4 real flops per complex-real MAC of ``X a``."""
        dim, size = batch_geometry(codebooks)
        return 4 * dim * size

    def __repr__(self) -> str:
        return "PhasorBackend()"


class NoisySimilarityBackend(MVMBackend):
    """Exact MVMs plus additive Gaussian noise on the similarity read-out.

    ``sigma`` is expressed relative to ``sqrt(dim)``, the standard deviation
    of a random-vector similarity, so ``sigma=1.0`` injects noise comparable
    to the intrinsic cross-talk floor.  This is the minimal model of the
    "stochastic similarity vector with all the PVT variations aggregated"
    of Sec. III-C.
    """

    deterministic = False

    def __init__(
        self,
        sigma: float = 1.0,
        *,
        noise_on_projection: bool = False,
        projection_sigma: Optional[float] = None,
        rng: RandomState = None,
    ) -> None:
        check_positive("sigma", sigma, allow_zero=True)
        self.sigma = sigma
        self.noise_on_projection = noise_on_projection
        self.projection_sigma = (
            sigma if projection_sigma is None else projection_sigma
        )
        self._rng = as_rng(rng)
        self._exact = ExactBackend()

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        clean = self._exact.similarity(codebook, query)
        if self.sigma == 0:
            return clean
        scale = self.sigma * np.sqrt(codebook.dim)
        return clean + self._rng.normal(0.0, scale, size=clean.shape).astype(
            np.float32
        )

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        clean = self._exact.project(codebook, weights)
        if not self.noise_on_projection or self.projection_sigma == 0:
            return clean
        scale = self.projection_sigma * np.sqrt(codebook.size)
        return clean + self._rng.normal(0.0, scale, size=clean.shape).astype(
            np.float32
        )

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        clean = self._exact.similarity_batch(codebooks, queries)
        if self.sigma == 0:
            return clean
        dim, _ = batch_geometry(codebooks)
        scale = self.sigma * np.sqrt(dim)
        return clean + self._rng.normal(0.0, scale, size=clean.shape).astype(
            np.float32
        )

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        clean = self._exact.project_batch(codebooks, weights)
        if not self.noise_on_projection or self.projection_sigma == 0:
            return clean
        _, size = batch_geometry(codebooks)
        scale = self.projection_sigma * np.sqrt(size)
        return clean + self._rng.normal(0.0, scale, size=clean.shape).astype(
            np.float32
        )

    def __repr__(self) -> str:
        return f"NoisySimilarityBackend(sigma={self.sigma})"


class QuantizedSimilarityBackend(MVMBackend):
    """Wraps another backend and quantizes similarities through an ADC model.

    The ADC object must expose ``convert(values, full_scale)`` returning the
    reconstructed (de-quantized) values; :class:`repro.cim.adc.SARADC`
    satisfies this.  ``full_scale`` defaults to the codebook dimension, the
    largest possible similarity magnitude.  The ADC transfer is elementwise,
    so the batched path simply converts the stacked inner similarities.
    """

    def __init__(
        self,
        adc,
        *,
        inner: Optional[MVMBackend] = None,
        full_scale: Optional[float] = None,
    ) -> None:
        if not hasattr(adc, "convert"):
            raise ConfigurationError(
                "adc must provide a convert(values, full_scale) method"
            )
        self.adc = adc
        self.inner = inner if inner is not None else ExactBackend()
        self.full_scale = full_scale
        self.deterministic = (
            self.inner.deterministic and getattr(adc, "deterministic", True)
        )

    def _scale(self, dim: int) -> float:
        return self.full_scale if self.full_scale is not None else dim

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        raw = self.inner.similarity(codebook, query)
        return self.adc.convert(raw, full_scale=self._scale(codebook.dim))

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        return self.inner.project(codebook, weights)

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        raw = self.inner.similarity_batch(codebooks, queries)
        dim, _ = batch_geometry(codebooks)
        return self.adc.convert(raw, full_scale=self._scale(dim))

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        return self.inner.project_batch(codebooks, weights)

    def begin_trial(self) -> None:
        self.inner.begin_trial()

    def bind_trials(self, seeds: Sequence[int]) -> None:
        self.inner.bind_trials(seeds)

    def select_trials(self, rows: np.ndarray) -> None:
        self.inner.select_trials(rows)

    def __repr__(self) -> str:
        return f"QuantizedSimilarityBackend(adc={self.adc!r}, inner={self.inner!r})"
