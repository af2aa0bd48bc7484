"""Full-fidelity CIM crossbar backend, vectorized over a trial batch.

:class:`CIMBatchedBackend` is the highest-fidelity MVM backend: where
:class:`repro.core.cim_backend.CIMBackend` injects *aggregate* read-out
statistics (one Gaussian per output, nominal arrays), this backend runs
the resonator's two MVMs on **simulated programmed crossbars** - per-cell
lognormal programming variability, stuck-at faults, write-verify
quantization, per-subarray (tiled) sensing with per-tile ADC conversion
and digital accumulation, DAC-quantized multi-bit projection inputs, and
per-read device noise - while still advancing a whole ``(trials, dim)``
batch through stacked matrix kernels (:mod:`repro.cim.rram.batched`).

Fidelity chain (similarity MVM, Fig. 3 step II):

1. tile the ``dim x size`` codebook onto ``rows x cols`` subarrays;
2. per row tile: exact integer crossbar partial sums on the programmed
   (not nominal) differential conductances;
3. per-read column noise - the device term aggregates the programmed
   cells' read noise exactly (column variance is precomputed at program
   time), plus a *peripheral residual* that tops total read-out noise up
   to the calibrated :class:`~repro.cim.rram.noise.NoiseParameters` preset
   (measured testchip spread = device statistics + sense-amp offsets / IR
   drop / PVT; the residual is the quadrature difference);
4. single-ended sensing rectifies each tile's partial sum;
5. each tile's SAR ADC converts its column block
   (full scale ``adc_full_scale_zscore * sqrt(rows)``, the per-subarray
   working range), and tier-1 accumulates the digital words;
6. the adaptive VTGT threshold zeroes sub-threshold accumulated
   similarities (:class:`~repro.resonator.stochastic.ThresholdPolicy`).

The projection MVM (step III) DAC-quantizes the similarity words onto the
chain's integer grid (lossless for chain-fed weights), runs them through
an independently-programmed tier-2 crossbar, and adds input-dependent
read noise; its output feeds the 1-bit sign activation directly
(differential sensing + comparator - no projection ADC).

Determinism contract
--------------------
* **Programming** is a pure function of codebook *content* (hash-seeded;
  :func:`~repro.cim.rram.batched.conductance_rng`), cached process-wide
  with byte-budget LRU eviction keyed the same way as the serving
  registry's content hashes, so repeated codebooks amortize programming
  and eviction never changes results.
* **Per-read noise** is drawn from *per-trial streams*: the replay layer
  binds one stream per request seed (:meth:`MVMBackend.bind_trials
  <repro.resonator.backends.MVMBackend.bind_trials>`), and the batched
  network reports which trial each stacked row belongs to
  (:meth:`MVMBackend.select_trials
  <repro.resonator.backends.MVMBackend.select_trials>`).  Each trial
  therefore consumes its own noise sequence regardless of batch packing.
* **Arithmetic** is exact: conductances live on an integer grid and DAC
  codes are integers, so all matmuls are exact integer sums in float64 -
  immune to BLAS blocking order.

Together these make a seeded batch run *bit-identical* to the per-trial
sequential loop (``H3DFACT_ENGINE=sequential``) - the guarantee Table II's
H3D column and Fig. 6a/6b rely on, pinned by
``tests/test_crossbar_backend.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.adc import SARADC
from repro.cim.rram.batched import (
    ProgrammedConductances,
    TiledArrayGeometry,
    dac_codes,
    program_codebook,
)
from repro.cim.rram.device import RRAMDeviceModel
from repro.cim.rram.noise import NoiseParameters
from repro.errors import ConfigurationError
from repro.resonator.backends import (
    STACKS,
    CodebookBatch,
    MVMBackend,
    batch_geometry,
    codebooks_per_trial,
)
from repro.resonator.stochastic import ThresholdPolicy
from repro.utils.rng import RandomState, as_rng, fresh_seed
from repro.vsa.codebook import Codebook

#: Spawn-key tag separating a trial's noise stream from its init stream
#: (both may be derived from the same request seed).
_NOISE_STREAM_TAG = 0x7C1


class ConductanceCache:
    """Byte-budget LRU of programmed conductances, keyed by content.

    The key is ``(codebook content hash, device corner, geometry, grid,
    program seed)`` - the same "same arrays would be programmed"
    equivalence the serving registry uses, extended by the physical
    configuration.  Because programming is deterministic in that key,
    eviction is invisible to results: a returning codebook re-programs to
    bit-identical conductances (it only pays the programming time again,
    exactly like an evicted registry entry).
    """

    def __init__(self, capacity_bytes: int = 512 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[Tuple, ProgrammedConductances]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self,
        codebook: Codebook,
        *,
        device: RRAMDeviceModel,
        geometry: TiledArrayGeometry,
        grid_bits: int,
        program_seed: int,
    ) -> ProgrammedConductances:
        """Programmed conductances for the key, programming on first sight."""
        from repro.telemetry import get_log

        fingerprint = codebook.fingerprint
        key = (fingerprint, device, geometry, grid_bits, program_seed)
        log = get_log()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if cached is not None:
            if log.enabled:
                log.emit("cache.hit", cache="conductance", key=fingerprint[:16])
            return cached
        # Program outside the lock (pure function of the key).
        programmed = program_codebook(
            codebook.matrix,
            fingerprint,
            device=device,
            geometry=geometry,
            grid_bits=grid_bits,
            program_seed=program_seed,
        )
        evicted_count = 0
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                self._entries[key] = programmed
                self._bytes += programmed.nbytes
                while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                    _, evicted = self._entries.popitem(last=False)
                    self._bytes -= evicted.nbytes
                    self.evictions += 1
                    evicted_count += 1
            result = self._entries[key]
        if log.enabled:
            log.emit("cache.miss", cache="conductance", key=fingerprint[:16])
            for _ in range(evicted_count):
                log.emit("cache.eviction", cache="conductance")
        return result

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ConductanceCache(entries={len(self)}, bytes={self._bytes}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


#: Process-wide default cache: every backend instance (sequential per-trial
#: backends included) shares one program-once store, mirroring one
#: fabricated stack serving all traffic.
CONDUCTANCE_CACHE = ConductanceCache()


class _StackedConductances:
    """Stacked tensors for a per-trial programmed-codebook batch.

    Built once per tuple of codebook fingerprints and kept in the shared
    stack store (:data:`~repro.resonator.backends.STACKS`):
    compactions of the batched network's active set rebuild at most
    ``log2(T)`` times.
    """

    def __init__(self, progs: Sequence[ProgrammedConductances]) -> None:
        self.g_sim = np.stack([p.g_sim for p in progs])
        self.sim_read_sigma = np.stack([p.sim_read_sigma for p in progs])
        self.g_proj = np.stack([p.g_proj for p in progs])
        self.gsq_proj = np.stack([p.gsq_proj for p in progs])


class CIMBatchedBackend(MVMBackend):
    """Tiled, batched crossbar MVMs at device fidelity (module docstring).

    Parameters
    ----------
    device:
        RRAM technology corner programmed into both tiers.
    noise:
        Calibrated *total* read-out preset; the part not explained by
        device statistics becomes the peripheral residual (quadrature).
        Default: the testchip calibration, as everywhere else.
    adc:
        Per-tile column converter (default 4-bit SAR, the design point).
    policy:
        VTGT calibration; ``None`` disables the threshold.
    adc_full_scale_zscore:
        Per-tile converter range in units of ``sqrt(rows)`` (the
        subarray's crosstalk scale).
    geometry:
        Physical subarray tiling (default 256 x 256, Sec. IV-A).
    grid_bits:
        Write-verify conductance grid resolution.
    projection_noise:
        Model tier-2 read noise too (the sign activation absorbs most).
    program_seed:
        Seed mixed into the content-keyed programming RNG ("which chip").
    rng:
        Master stream used only to derive per-trial noise streams when no
        request seeds are bound.
    cache:
        Conductance store; defaults to the process-wide
        :data:`CONDUCTANCE_CACHE`.
    """

    deterministic = False

    def __init__(
        self,
        *,
        device: Optional[RRAMDeviceModel] = None,
        noise: Optional[NoiseParameters] = None,
        adc: Optional[SARADC] = None,
        policy: Optional[ThresholdPolicy] = ThresholdPolicy(),
        adc_full_scale_zscore: float = 8.0,
        geometry: Optional[TiledArrayGeometry] = None,
        grid_bits: int = 8,
        projection_noise: bool = True,
        program_seed: int = 0,
        rng: RandomState = None,
        cache: Optional[ConductanceCache] = None,
    ) -> None:
        self.device = device if device is not None else RRAMDeviceModel()
        self.noise = noise if noise is not None else NoiseParameters.testchip()
        self.adc = adc if adc is not None else SARADC(bits=4)
        self.policy = policy
        self.adc_full_scale_zscore = adc_full_scale_zscore
        self.geometry = geometry if geometry is not None else TiledArrayGeometry()
        self.grid_bits = int(grid_bits)
        self.projection_noise = projection_noise
        self.program_seed = int(program_seed)
        self.cache = cache if cache is not None else CONDUCTANCE_CACHE
        # Device-explained per-read sigma in z-units (per sqrt(dim)); the
        # calibrated preset's excess becomes the peripheral residual.
        dev = self.device
        self._device_read_z = float(
            dev.sigma_read * np.sqrt(dev.g_on**2 + dev.g_off**2) / dev.delta_g
        )
        self._residual_z = float(
            np.sqrt(max(0.0, self.noise.sigma_z**2 - self._device_read_z**2))
        )
        #: Effective total per-read sigma in z-units (threshold calibration).
        self.total_read_z = float(
            np.sqrt(self._device_read_z**2 + self._residual_z**2)
        )
        # The master seed is drawn *lazily*, only if unbound streams are
        # ever needed: a backend whose trials are always bound to request
        # seeds consumes nothing from the caller's rng, so building one
        # backend (batched) or one per trial (sequential) leaves a shared
        # experiment stream in the same state - a requirement for
        # multi-cell sweeps to stay bit-identical across engines.
        self._rng_source = as_rng(rng)
        self._master_seed: Optional[int] = None
        self._streams: List[np.random.Generator] = []
        self._bound = False
        self._rows: Optional[np.ndarray] = None
        self.deterministic = (
            self.device.sigma_read == 0
            and self._residual_z == 0
            and self.adc.deterministic
        )

    # -- trial streams (see module docstring: determinism contract) --------

    def bind_trials(self, seeds: Sequence[int]) -> None:
        """Give each trial its own noise stream, derived from its seed."""
        self._streams = [
            np.random.default_rng(
                np.random.SeedSequence(
                    entropy=int(seed), spawn_key=(_NOISE_STREAM_TAG,)
                )
            )
            for seed in seeds
        ]
        self._bound = True
        self._rows = None

    def select_trials(self, rows: np.ndarray) -> None:
        """Declare which global trial each row of the next calls maps to."""
        self._rows = np.asarray(rows)

    def _ensure_streams(self, upto: int) -> None:
        if self._master_seed is None:
            self._master_seed = fresh_seed(self._rng_source)
        while len(self._streams) < upto:
            self._streams.append(
                np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=self._master_seed,
                        spawn_key=(_NOISE_STREAM_TAG, len(self._streams)),
                    )
                )
            )

    def _row_streams(self, count: int) -> List[np.random.Generator]:
        rows = self._rows
        if rows is None:
            rows = np.arange(count)
        elif len(rows) != count:
            # A stale/mismatched mapping must never silently remap trials
            # onto each other's noise streams - that would quietly void
            # the packing-independence contract.
            raise ConfigurationError(
                f"select_trials declared {len(rows)} rows but the batch "
                f"has {count}; re-declare the row mapping (or begin_trial "
                "to reset it) before changing batch shape"
            )
        if not self._bound:
            self._ensure_streams(int(rows.max()) + 1 if count else 0)
        return [self._streams[int(t)] for t in rows]

    def begin_trial(self) -> None:
        """Reset the trial-row mapping; arrays stay programmed (cached).

        Called once per factorization: conductances are program-once
        (content-keyed), and bound per-trial streams survive so a
        bind_trials -> factorize sequence keeps its replay identity.
        """
        self._rows = None

    # -- programmed arrays -------------------------------------------------

    def programmed_for(self, codebook: Codebook) -> ProgrammedConductances:
        """This backend's frozen conductance realization of ``codebook``."""
        return self.cache.get(
            codebook,
            device=self.device,
            geometry=self.geometry,
            grid_bits=self.grid_bits,
            program_seed=self.program_seed,
        )

    def _stacked(self, books: Sequence[Codebook]) -> _StackedConductances:
        kind = (
            "conductances", self.device, self.geometry, self.grid_bits,
            self.program_seed,
        )
        return STACKS.get(
            kind,
            books,
            lambda: _StackedConductances(
                [self.programmed_for(book) for book in books]
            ),
        )

    # -- similarity chain scales ------------------------------------------

    def _tile_full_scale(self) -> float:
        """Per-tile ADC full scale in similarity units."""
        return self.adc_full_scale_zscore * float(np.sqrt(self.geometry.rows))

    def weight_step(self) -> float:
        """LSB of the accumulated similarity words (the DAC grid)."""
        return self._tile_full_scale() / self.adc.levels

    def _max_code(self, dim: int) -> int:
        """Largest accumulated code: all row tiles saturated."""
        return self.adc.levels * self.geometry.num_row_tiles(dim)

    # -- MVMs --------------------------------------------------------------
    # The batch methods are the single authoritative implementation; the
    # scalar methods run a one-row batch against trial stream 0, which is
    # exactly what the per-trial sequential loop binds (replay layer).

    def similarity(self, codebook: Codebook, query: np.ndarray) -> np.ndarray:
        """One-row batch of :meth:`similarity_batch` on trial stream 0."""
        return self.similarity_batch(codebook, np.asarray(query)[None])[0]

    def project(self, codebook: Codebook, weights: np.ndarray) -> np.ndarray:
        """One-row batch of :meth:`project_batch` on trial stream 0."""
        return self.project_batch(codebook, np.asarray(weights)[None])[0]

    def similarity_batch(
        self, codebooks: CodebookBatch, queries: np.ndarray
    ) -> np.ndarray:
        """Tiled crossbar read-out over a ``(trials, dim)`` query matrix."""
        queries = np.asarray(queries, dtype=np.float64)
        trials = len(queries)
        dim, size = batch_geometry(codebooks)
        slices = self.geometry.row_slices(dim)
        n_tiles = len(slices)
        shared = isinstance(codebooks, Codebook)
        if shared:
            prog = self.programmed_for(codebooks)
            unit_scale = prog.unit_scale
            read_sigma = prog.sim_read_sigma[None]  # (1, tiles, M)
        else:
            books = codebooks_per_trial(codebooks, trials)
            stacked = self._stacked(books)
            unit_scale = self.programmed_for(books[0]).unit_scale
            read_sigma = stacked.sim_read_sigma  # (T, tiles, M)
        # Per-tile per-column total read sigma (device + residual).
        tile_rows = np.array([s.stop - s.start for s in slices], dtype=np.float64)
        sigma = np.sqrt(
            read_sigma**2 + (self._residual_z**2) * tile_rows[None, :, None]
        )
        # Exact integer partial sums per row tile (grid units).
        partial = np.empty((trials, n_tiles, size), dtype=np.float64)
        for t, rows in enumerate(slices):
            if shared:
                partial[:, t, :] = queries[:, rows] @ prog.g_sim[rows]
            else:
                partial[:, t, :] = np.matmul(
                    queries[:, None, rows], stacked.g_sim[:, rows, :]
                )[:, 0, :]
        values = partial * unit_scale
        # Per-read noise, one stream per trial (packing-independent).
        if self.total_read_z > 0:
            streams = self._row_streams(trials)
            eps = np.empty_like(values)
            for r, stream in enumerate(streams):
                eps[r] = stream.normal(0.0, 1.0, size=(n_tiles, size))
            values = values + eps * sigma
        # Single-ended sensing rectifies each tile's partial sum, the
        # tile's SAR ADC converts its column block, tier-1 accumulates.
        values = np.maximum(values, 0.0)
        values = self.adc.convert(values, full_scale=self._tile_full_scale())
        sims = values.sum(axis=1)
        if self.policy is not None:
            threshold = self.policy.threshold(dim, size, self.total_read_z)
            sims = np.where(sims >= threshold, sims, 0.0)
        return sims

    def project_batch(
        self, codebooks: CodebookBatch, weights: np.ndarray
    ) -> np.ndarray:
        """Tier-2 crossbar projection of DAC-quantized similarity words."""
        weights = np.asarray(weights, dtype=np.float64)
        trials = len(weights)
        dim, size = batch_geometry(codebooks)
        step = self.weight_step()
        codes = dac_codes(weights, step=step, max_code=self._max_code(dim))
        shared = isinstance(codebooks, Codebook)
        if shared:
            prog = self.programmed_for(codebooks)
            unit_scale = prog.unit_scale
            clean_units = codes @ prog.g_proj  # exact integers
        else:
            books = codebooks_per_trial(codebooks, trials)
            stacked = self._stacked(books)
            unit_scale = self.programmed_for(books[0]).unit_scale
            clean_units = np.matmul(codes[:, None, :], stacked.g_proj)[:, 0, :]
        values = clean_units * (unit_scale * step)
        if self.projection_noise and (
            self.device.sigma_read > 0 or self._residual_z > 0
        ):
            # Input-dependent device term: column variance aggregates the
            # applied codes against the programmed squared conductances
            # (exact integer matmul), plus the peripheral residual at the
            # statistical backend's crosstalk scale.
            sq = codes**2
            if shared:
                var_units = sq @ prog.gsq_proj
            else:
                var_units = np.matmul(sq[:, None, :], stacked.gsq_proj)[:, 0, :]
            sigma = np.sqrt(
                (self.device.sigma_read * unit_scale * step) ** 2 * var_units
                + (self._residual_z**2) * size
            )
            streams = self._row_streams(trials)
            eps = np.empty_like(values)
            for r, stream in enumerate(streams):
                eps[r] = stream.normal(0.0, 1.0, size=dim)
            values = values + eps * sigma
        return values

    def __repr__(self) -> str:
        return (
            f"CIMBatchedBackend(device={self.device!r}, "
            f"noise={self.noise.name!r}, adc={self.adc!r}, "
            f"geometry={self.geometry!r}, grid_bits={self.grid_bits})"
        )
