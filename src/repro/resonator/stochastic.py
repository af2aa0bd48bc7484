"""Stochastic resonator configurations: the H3DFact similarity read-out.

The H3DFact similarity path (Sec. III/IV) differs from the software baseline
in four physically-motivated ways, applied in this order to ``a = X^T u``:

1. **Read-out noise** - programming variability, read noise and PVT effects
   aggregate into Gaussian noise on each column current (Sec. III-C,
   "stochastic similarity vector with all the PVT variations aggregated").
2. **Rectification** - the current-sensing front end reports the positive
   part of the differential column current; negative similarities carry no
   current past the sense threshold.
3. **VTGT threshold** - the adjustable target sensing voltage zeroes
   sub-threshold similarities.  The paper calibrates VTGT per problem
   ("we adjust the threshold value accordingly", Sec. V-D);
   :class:`ThresholdPolicy` reproduces that calibration by targeting a
   constant expected number of supra-threshold codebook entries.
4. **SAR ADC quantization** - the 4-bit converter digitizes the
   supra-threshold current range; its coarse steps add quantization dither
   (the Fig. 6a convergence-speedup mechanism).

The combination turns the resonator update into a *sparse stochastic search
in superposition*: each iteration a handful of candidate code vectors pass
the threshold, noise varies which ones, and the true combination - once
touched - locks because its similarity (≈ D) towers over the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.resonator.backends import (
    CodebookBatch,
    ExactBackend,
    MVMBackend,
    batch_geometry,
)
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_positive
from repro.vsa.codebook import Codebook


@lru_cache(maxsize=None)
def _upper_quantile(tail: float) -> float:
    """Standard-normal upper-tail quantile ``norm.isf(tail)``, memoized.

    Only a handful of distinct tails occur (one per codebook size), while
    the threshold is read on every sweep.  scipy is imported here rather
    than at module level because it dominates ``import repro`` time.
    Keep scipy's values: ``statistics.NormalDist`` differs in the last
    bit at some tails, which can flip threshold comparisons.
    """
    from scipy.stats import norm

    return float(norm.isf(tail))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Chooses the VTGT threshold for a given codebook.

    ``target_pass_count`` is the expected number of codebook entries whose
    *crosstalk* (noise-floor) similarity exceeds the threshold.  Keeping
    this constant across codebook sizes is what the paper's adjustable VTGT
    achieves: small codebooks get a low threshold (so the search never
    starves on an all-zero similarity vector), large codebooks get a high
    one (so the superposition stays sparse).

    Crosstalk similarities are approximately ``N(0, sqrt(D))``; with read
    noise of ``sigma * sqrt(D)`` added, the effective scale grows to
    ``sqrt(D * (1 + sigma^2))``.  The threshold is the upper-tail quantile
    of that distribution at probability ``target_pass_count / M``.
    """

    target_pass_count: float = 4.0
    #: Fixed threshold in units of sqrt(dim); overrides the adaptive rule.
    fixed_zscore: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("target_pass_count", self.target_pass_count)

    def threshold(self, dim: int, codebook_size: int, noise_sigma: float) -> float:
        """Absolute threshold on the (noisy, rectified) similarity value."""
        effective_scale = np.sqrt(dim * (1.0 + noise_sigma**2))
        if self.fixed_zscore is not None:
            return float(self.fixed_zscore * effective_scale)
        tail = min(0.5, self.target_pass_count / max(codebook_size, 1))
        return float(_upper_quantile(tail) * effective_scale)


class StochasticThresholdBackend(MVMBackend):
    """Algorithm-level model of the H3DFact similarity read-out.

    This backend reproduces the *statistics* of the full RRAM crossbar
    simulation (:mod:`repro.cim`) at a fraction of the cost: one Gaussian
    sample per similarity output instead of one per device.  The crossbar
    tests validate that both produce matching error distributions.

    Parameters
    ----------
    noise_sigma:
        Read-out noise scale relative to ``sqrt(dim)``; 0 disables noise
        (leaving only rectification + threshold + quantization).
    policy:
        VTGT threshold calibration; ``None`` disables thresholding.
    adc:
        Optional ADC model with a ``convert(values, full_scale)`` method
        applied to the supra-threshold similarities.
    adc_full_scale_zscore:
        ADC full scale in units of ``sqrt(dim)``.  The converter's range is
        matched to the *working range* of supra-threshold similarities
        during search (a few crosstalk sigmas), not to the maximum possible
        similarity ``D``: the locked-in signal may clip at full scale
        without harm, while spreading the 16 codes of a 4-bit converter
        over ``[0, D]`` would crush the graded weights the dynamics need.
    rectify:
        Apply the positive-part nonlinearity of the sensing front end.
    projection_noise_sigma:
        Optional Gaussian noise on the projection MVM output (tier-2 RRAM),
        relative to ``sqrt(codebook_size)``.
    """

    deterministic = False

    def __init__(
        self,
        *,
        noise_sigma: float = 0.5,
        policy: Optional[ThresholdPolicy] = ThresholdPolicy(),
        adc=None,
        adc_full_scale_zscore: float = 8.0,
        rectify: bool = True,
        projection_noise_sigma: float = 0.0,
        rng: RandomState = None,
    ) -> None:
        check_positive("noise_sigma", noise_sigma, allow_zero=True)
        check_positive(
            "adc_full_scale_zscore", adc_full_scale_zscore, allow_zero=False
        )
        check_positive(
            "projection_noise_sigma", projection_noise_sigma, allow_zero=True
        )
        self.noise_sigma = noise_sigma
        self.policy = policy
        self.adc = adc
        self.adc_full_scale_zscore = adc_full_scale_zscore
        self.rectify = rectify
        self.projection_noise_sigma = projection_noise_sigma
        self._rng = as_rng(rng)
        self._exact = ExactBackend()
        self.deterministic = noise_sigma == 0 and projection_noise_sigma == 0 and (
            adc is None or getattr(adc, "deterministic", True)
        )

    # -- the similarity chain ---------------------------------------------
    # The batch methods are the single authoritative implementation of the
    # read-out chain; the scalar methods run a one-row batch (the seeded
    # noise stream is unchanged: Generator.normal draws identical values
    # for size=(M,) and size=(1, M)).

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        return self.similarity_batch(codebook, np.asarray(query)[None])[0]

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        return self.project_batch(codebook, np.asarray(weights)[None])[0]

    # -- batched execution (one noise draw per output, whole batch) --------

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        values = self._exact.similarity_batch(codebooks, queries)
        dim, size = batch_geometry(codebooks)
        sqrt_dim = np.sqrt(dim)
        if self.noise_sigma > 0:
            values = values + self._rng.normal(
                0.0, self.noise_sigma * sqrt_dim, size=values.shape
            ).astype(np.float32)
        if self.rectify:
            values = np.maximum(values, 0.0)
        if self.policy is not None:
            threshold = self.policy.threshold(dim, size, self.noise_sigma)
            values = np.where(values >= threshold, values, 0.0)
        if self.adc is not None:
            full_scale = self.adc_full_scale_zscore * sqrt_dim
            values = self.adc.convert(values, full_scale=full_scale)
        return values

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        values = self._exact.project_batch(codebooks, weights)
        if self.projection_noise_sigma > 0:
            _, size = batch_geometry(codebooks)
            scale = self.projection_noise_sigma * np.sqrt(size)
            values = values + self._rng.normal(
                0.0, scale, size=values.shape
            ).astype(np.float32)
        return values

    def __repr__(self) -> str:
        return (
            f"StochasticThresholdBackend(noise_sigma={self.noise_sigma}, "
            f"policy={self.policy!r}, adc={self.adc!r})"
        )


class RectifiedBackend(MVMBackend):
    """Deterministic rectified-similarity backend (the Table II baseline).

    The baseline resonator network [9] evaluated by the paper shares the
    current-sensing front end (and hence the positive-part nonlinearity)
    with the stochastic design but has neither read-out noise nor a
    threshold: it is the deterministic limit of the similarity chain.
    Rectification substantially raises the deterministic capacity compared
    with the signed ``X X^T`` update, which is why it is the fair baseline.
    """

    deterministic = True

    def __init__(self) -> None:
        self._exact = ExactBackend()

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        return np.maximum(self._exact.similarity(codebook, query), 0.0)

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        return self._exact.project(codebook, weights)

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        return np.maximum(self._exact.similarity_batch(codebooks, queries), 0.0)

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        return self._exact.project_batch(codebooks, weights)

    def __repr__(self) -> str:
        return "RectifiedBackend()"
