"""Batched tier-1 kernels: uint64 bit-planes, XNOR unbind, popcount MVM.

The per-cell units (:class:`~repro.cim.sram.counter.NegOnesCounter`,
:class:`~repro.cim.sram.xnor.XNORUnbindUnit`) model one gate / one counter
at a time.  This module is the word-parallel view the hardware actually
executes (Sec. III-A/III-B): bipolar vectors packed 64 lanes per uint64
word, unbinding as whole-word XNOR, and the similarity MVM as XOR +
popcount + accumulate per codebook column - the ``dot = n - 2k`` counter
identity over whole bit-planes.

Every kernel is bit-exact against the per-cell units (pinned by
``tests/test_sram_batched.py`` across widths 1..129, covering every
``width % 8`` and ``width % 64`` residue):

* **Packing** pads the tail word with zero lanes.  XOR of two packed
  vectors therefore has a zero tail, so mismatch popcounts need no mask;
  only operations that *invert* words (XNOR unbind) must re-mask the tail
  (:func:`tail_mask`).
* **Popcount** uses ``np.bitwise_count`` (numpy >= 2.0) with a byte-table
  fallback, and the hot MVM path dispatches to a tiny C kernel compiled
  at first use (:mod:`repro.cim.sram.native`) - same integers, fused
  single pass - falling back to the numpy implementation when no
  toolchain is available.

Lane order is little-endian (lane ``i`` of word ``w`` is element
``64 * w + i``), matching ``np.packbits(bitorder="little")`` plus a
little-endian uint64 view - the layout of every mainstream target.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cim.sram.native import popcount_mvm_kernel
from repro.errors import DimensionError
from repro.vsa.codebook import Codebook

#: Lanes per packed word.
WORD_BITS = 64

#: Byte-level popcount table for the numpy fallback on numpy < 2.0.
_POPCOUNT8 = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

#: Row-chunk budget (elements of the (chunk, size, words) XOR intermediate)
#: for the pure-numpy MVM, bounding its scratch memory.
_NUMPY_CHUNK_ELEMENTS = 1 << 22


def num_words(width: int) -> int:
    """Packed uint64 words holding ``width`` lanes."""
    if width <= 0:
        raise DimensionError(f"width must be positive, got {width}")
    return (width + WORD_BITS - 1) // WORD_BITS


def tail_mask(width: int) -> np.uint64:
    """Mask of the valid lanes in the last packed word of ``width``."""
    residue = width % WORD_BITS
    if residue == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << residue) - 1)


def pack_bipolar(vectors: np.ndarray) -> np.ndarray:
    """Pack bipolar ``(..., width)`` vectors into uint64 ``(..., words)``.

    ``+1 -> 1`` / ``-1 -> 0`` (the tier-1 bit encoding); tail lanes beyond
    ``width`` are zero.  Inputs may be any numeric dtype with -1/+1 values
    (int8 codebooks, float32 resonator states).
    """
    vectors = np.asarray(vectors)
    if vectors.ndim == 0 or vectors.shape[-1] == 0:
        raise DimensionError("pack_bipolar needs a trailing vector axis")
    bits = (vectors > 0).astype(np.uint8)
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-packed8.shape[-1]) % 8
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros(packed8.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_bipolar(packed: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bipolar`: uint64 words -> int64 -1/+1."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.shape[-1] != num_words(width):
        raise DimensionError(
            f"{packed.shape[-1]} packed words do not hold width {width} "
            f"(expected {num_words(width)})"
        )
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :width]
    return 2 * bits.astype(np.int64) - 1


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word population count (int64), any shape of uint64 words."""
    words = np.asarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    counts = _POPCOUNT8[np.ascontiguousarray(words).view(np.uint8)]
    return counts.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.int64)


def packed_xnor_unbind(
    product: np.ndarray, factors: Sequence[np.ndarray], width: int
) -> np.ndarray:
    """Word-parallel XNOR unbind on packed ``(..., words)`` operands.

    Equals :meth:`XNORUnbindUnit.unbind
    <repro.cim.sram.xnor.XNORUnbindUnit.unbind>` on the unpacked vectors;
    the tail word is re-masked after every inversion so padding lanes stay
    zero (the invariant every popcount here relies on).
    """
    words = num_words(width)
    result = np.array(product, dtype=np.uint64)  # copy: masked in place
    if result.shape[-1] != words:
        raise DimensionError(
            f"product has {result.shape[-1]} words, width {width} needs {words}"
        )
    mask = tail_mask(width)
    for factor in factors:
        factor = np.asarray(factor, dtype=np.uint64)
        if factor.shape[-1] != words:
            raise DimensionError(
                f"factor has {factor.shape[-1]} words, width {width} "
                f"needs {words}"
            )
        result = np.bitwise_not(np.bitwise_xor(result, factor))
        result[..., -1] &= mask
    return result


def xnor_popcount_mvm(
    items: np.ndarray, queries: np.ndarray, width: int
) -> np.ndarray:
    """Batched counter-identity similarity: ``width - 2 * mismatches``.

    ``items`` is the packed codebook, ``(size, words)`` (one row per code
    vector); ``queries`` is ``(trials, words)``.  Returns the int64
    ``(trials, size)`` similarity matrix ``Q X`` - bit-identical to
    :meth:`NegOnesCounter.similarity_vector
    <repro.cim.sram.counter.NegOnesCounter.similarity_vector>` per row.
    Both operands must come from :func:`pack_bipolar` (zero tail lanes).
    """
    items = np.ascontiguousarray(items, dtype=np.uint64)
    queries = np.ascontiguousarray(queries, dtype=np.uint64)
    if items.ndim != 2 or queries.ndim != 2:
        raise DimensionError(
            f"expected 2-D packed operands, got {items.shape} and "
            f"{queries.shape}"
        )
    words = num_words(width)
    if items.shape[1] != words or queries.shape[1] != words:
        raise DimensionError(
            f"packed operands {items.shape} / {queries.shape} do not match "
            f"width {width} ({words} words)"
        )
    trials, size = queries.shape[0], items.shape[0]
    mismatches = np.empty((trials, size), dtype=np.int64)
    kernel = popcount_mvm_kernel()
    if kernel is not None and trials and size:
        kernel(
            items.ctypes.data,
            queries.ctypes.data,
            mismatches.ctypes.data,
            trials,
            size,
            words,
        )
    else:
        # Pure-numpy fallback: chunk the (trials, size, words) XOR
        # intermediate so scratch memory stays bounded.
        chunk = max(1, _NUMPY_CHUNK_ELEMENTS // max(1, size * words))
        for start in range(0, trials, chunk):
            block = np.bitwise_xor(
                queries[start : start + chunk, None, :], items[None, :, :]
            )
            mismatches[start : start + chunk] = popcount(block).sum(
                axis=-1, dtype=np.int64
            )
    return width - 2 * mismatches


@dataclass(frozen=True)
class PackedCodebook:
    """A codebook frozen into tier-1 bit-planes.

    ``items`` is uint64 ``(size, words)``: row ``m`` is code vector ``m``
    packed along the dimension axis, the operand layout of
    :func:`xnor_popcount_mvm`.
    """

    items: np.ndarray
    width: int
    size: int

    @property
    def words(self) -> int:
        """Packed words per code vector."""
        return self.items.shape[1]


def pack_codebook(codebook: Codebook) -> PackedCodebook:
    """Pack a bipolar codebook's transpose into :class:`PackedCodebook`."""
    items = pack_bipolar(np.ascontiguousarray(codebook.matrix.T))
    return PackedCodebook(
        items=items, width=codebook.dim, size=codebook.size
    )


class PackedCodebookCache:
    """Content-keyed LRU of packed codebooks (cf. the conductance cache).

    Packing is a pure function of codebook content, so eviction is
    invisible to results - a returning codebook re-packs bit-identically,
    mirroring :class:`~repro.core.crossbar_backend.ConductanceCache`.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, PackedCodebook]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, codebook: Codebook) -> PackedCodebook:
        """Packed bit-planes for ``codebook``, packing on first sight."""
        from repro.telemetry import get_log

        key = codebook.fingerprint
        log = get_log()
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if log.enabled:
                log.emit("cache.hit", cache="packed_codebook", key=key[:16])
            return cached
        packed = pack_codebook(codebook)
        self.misses += 1
        if log.enabled:
            log.emit("cache.miss", cache="packed_codebook", key=key[:16])
        self._entries[key] = packed
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            if log.enabled:
                log.emit("cache.eviction", cache="packed_codebook")
        return packed

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PackedCodebookCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


#: Process-wide default cache: every SRAM backend shares one pack-once
#: store, mirroring one fabricated tier-1 serving all traffic.
PACKED_CODEBOOK_CACHE = PackedCodebookCache()
