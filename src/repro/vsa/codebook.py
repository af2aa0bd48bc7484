"""Codebooks of item hypervectors.

A :class:`Codebook` is the ``D x M`` matrix of item vectors for one
attribute (e.g. all shapes); a :class:`CodebookSet` holds one codebook per
attribute and is the second input to the resonator network (the first being
the product vector to factorize).

Both are immutable values, like the arrays they model: an RRAM codebook is
programmed once and then only read (Sec. IV-A).  A codebook owns a
read-only copy of its matrix, so its content hash (:attr:`Codebook.fingerprint`,
:attr:`CodebookSet.fingerprint`) is computed once, on first use.  Operands
derived from one codebook are kept on the value (:meth:`Codebook.derived`);
every cache that spans codebooks keys on the content hash, never on
object identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodebookError, ConfigurationError, DimensionError
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_vector
from repro.vsa import fhrr
from repro.vsa.ops import DEFAULT_DTYPE, random_hypervector


@dataclass(frozen=True, eq=False)
class Codebook:
    """Item vectors for one attribute - an immutable value.

    The constructor copies ``matrix`` into a read-only array the codebook
    owns (the caller's array is left untouched), so the content can never
    change after construction and :attr:`fingerprint` is hashed at most
    once per object.  Pickling rebuilds through the constructor, so a
    codebook that crosses a process boundary arrives read-only too.

    Attributes
    ----------
    name:
        Human-readable attribute name (``"shape"``, ``"color"``, ...).
    matrix:
        ``(dim, size)`` matrix; column ``m`` is item vector ``m``.  Bipolar
        codebooks hold -1/+1 int8 entries, FHRR codebooks hold complex128
        unitary phasors.
    labels:
        Optional item labels, e.g. ``("circle", "triangle")``.
    algebra:
        ``"bipolar"`` (the paper's MAP VSA, default) or ``"fhrr"``
        (circular-convolution binding, :mod:`repro.vsa.fhrr`).
    """

    name: str
    matrix: np.ndarray
    labels: Optional[Tuple[str, ...]] = None
    algebra: str = "bipolar"

    def __post_init__(self) -> None:
        if self.algebra not in ("bipolar", "fhrr"):
            raise ConfigurationError(
                f"codebook {self.name!r}: algebra must be 'bipolar' or "
                f"'fhrr', got {self.algebra!r}"
            )
        dtype = fhrr.COMPLEX_DTYPE if self.algebra == "fhrr" else None
        matrix = np.array(self.matrix, dtype=dtype)  # always a private copy
        if matrix.ndim != 2:
            raise DimensionError(
                f"codebook {self.name!r} matrix must be 2-D, got "
                f"{matrix.ndim}-D"
            )
        check_vector(f"codebook {self.name!r}", matrix, algebra=self.algebra)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise CodebookError(
                    f"codebook {self.name!r} has {self.size} items but "
                    f"{len(self.labels)} labels"
                )

    def __reduce__(self):
        # Unpickled arrays come back writeable: rebuild (and re-freeze)
        # through the constructor instead of restoring the instance dict.
        return type(self), (self.name, self.matrix, self.labels, self.algebra)

    @property
    def fingerprint(self) -> str:
        """Content hash of the item vectors (:func:`codebook_fingerprint`)."""
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            # Deliberately not functools.cached_property: on Python 3.11 it
            # holds one class-wide lock while hashing, and a worker process
            # forked at that moment would deadlock on its first hash.  A
            # race here only hashes twice.
            fingerprint = self.__dict__["_fingerprint"] = codebook_fingerprint(self)
        return fingerprint

    def derived(self, build: Callable[["Codebook"], Any]) -> Any:
        """``build(self)``, computed on first use and kept with this value.

        For operands backends derive from the matrix (dtype views,
        transposes).  Keyed by the pure function ``build``, they live
        exactly as long as the codebook, can never be served for another
        one, and are not pickled (:meth:`__reduce__` rebuilds from the
        fields).
        """
        memo = self.__dict__.setdefault("_derived", {})
        try:
            return memo[build]
        except KeyError:
            value = memo[build] = build(self)
            return value

    # -- construction ---------------------------------------------------

    @classmethod
    def random(
        cls,
        name: str,
        dim: int,
        size: int,
        *,
        rng: RandomState = None,
        labels: Optional[Sequence[str]] = None,
        algebra: str = "bipolar",
    ) -> "Codebook":
        """Generate ``size`` random item vectors of dimension ``dim``."""
        if size <= 0:
            raise CodebookError(f"codebook size must be positive, got {size}")
        generator = as_rng(rng)
        if algebra == "fhrr":
            matrix = fhrr.random_phasor_matrix(dim, size, rng=generator)
        else:
            matrix = (
                2 * generator.integers(0, 2, size=(dim, size), dtype=np.int8) - 1
            ).astype(DEFAULT_DTYPE)
        return cls(
            name=name,
            matrix=matrix,
            labels=tuple(labels) if labels else None,
            algebra=algebra,
        )

    # -- basic properties -------------------------------------------------

    @property
    def dim(self) -> int:
        """Hypervector dimension ``D``."""
        return int(self.matrix.shape[0])

    @property
    def size(self) -> int:
        """Number of item vectors ``M``."""
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return self.size

    def vector(self, index: int) -> np.ndarray:
        """Item vector at ``index`` (a view into the matrix)."""
        if not 0 <= index < self.size:
            raise CodebookError(
                f"item index {index} out of range for codebook "
                f"{self.name!r} of size {self.size}"
            )
        return self.matrix[:, index]

    def label(self, index: int) -> str:
        """Label of item ``index`` (falls back to ``name[index]``)."""
        if self.labels is not None:
            return self.labels[index]
        return f"{self.name}[{index}]"

    # -- similarity-based decoding -----------------------------------------

    def similarities(self, query: np.ndarray) -> np.ndarray:
        """Similarity of ``query`` with every item vector.

        Bipolar: the integer dot product ``X^T q`` - exactly the MVM the
        RRAM similarity tier performs (Sec. IV-A, step II).  FHRR: the
        real part of the Hermitian product ``Re(X^H q)``; a matching
        unitary item scores ~1 (Parseval), a random one ~N(0, 1/sqrt(2D)).
        """
        query = np.asarray(query)
        if query.shape != (self.dim,):
            raise DimensionError(
                f"query shape {query.shape} does not match codebook dim "
                f"({self.dim},)"
            )
        if self.algebra == "fhrr":
            return np.real(
                self.matrix.conj().T @ query.astype(fhrr.COMPLEX_DTYPE)
            )
        return self.matrix.T.astype(np.int64) @ query.astype(np.int64)

    def cleanup(self, query: np.ndarray) -> Tuple[int, np.ndarray]:
        """Nearest item index and the item vector itself."""
        sims = self.similarities(query)
        index = int(np.argmax(sims))
        return index, self.vector(index)

    def project(self, weights: np.ndarray) -> np.ndarray:
        """Weighted sum of item vectors (``X a``), the projection MVM."""
        weights = np.asarray(weights)
        if weights.shape != (self.size,):
            raise DimensionError(
                f"weights shape {weights.shape} does not match codebook size "
                f"({self.size},)"
            )
        if self.algebra == "fhrr":
            # Similarity weights are real; the items are complex phasors.
            return self.matrix @ weights.astype(np.float64)
        return self.matrix.astype(np.int64) @ weights.astype(np.int64)

    def contains_vector(self, query: np.ndarray) -> bool:
        """True if ``query`` equals one of the item vectors exactly."""
        if self.algebra == "fhrr":
            query = np.asarray(query, dtype=fhrr.COMPLEX_DTYPE)
            if query.shape != (self.dim,):
                raise DimensionError(
                    f"query shape {query.shape} does not match codebook dim "
                    f"({self.dim},)"
                )
            return bool(np.any(np.all(self.matrix == query[:, None], axis=0)))
        sims = self.similarities(query)
        return bool(np.max(sims) == self.dim)


@dataclass(frozen=True, eq=False)
class CodebookSet:
    """One codebook per attribute, sharing a hypervector dimension.

    Immutable like its members: the codebooks are held in a tuple and the
    set's :attr:`fingerprint` is hashed at most once per object.
    """

    codebooks: Tuple[Codebook, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "codebooks", tuple(self.codebooks))
        if not self.codebooks:
            raise CodebookError("CodebookSet requires at least one codebook")
        dims = {cb.dim for cb in self.codebooks}
        if len(dims) != 1:
            raise DimensionError(
                f"codebooks must share a dimension, got dims {sorted(dims)}"
            )
        algebras = {cb.algebra for cb in self.codebooks}
        if len(algebras) != 1:
            raise ConfigurationError(
                f"codebooks must share an algebra, got {sorted(algebras)}"
            )
        names = [cb.name for cb in self.codebooks]
        if len(set(names)) != len(names):
            raise CodebookError(f"duplicate codebook names: {names}")

    def __reduce__(self):
        return type(self), (self.codebooks,)

    @property
    def fingerprint(self) -> str:
        """Content hash of the set (:func:`codebook_set_fingerprint`)."""
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:  # no lock: see Codebook.fingerprint
            fingerprint = self.__dict__["_fingerprint"] = codebook_set_fingerprint(
                self
            )
        return fingerprint

    @classmethod
    def random(
        cls,
        dim: int,
        sizes: Sequence[int],
        *,
        names: Optional[Sequence[str]] = None,
        rng: RandomState = None,
        algebra: str = "bipolar",
    ) -> "CodebookSet":
        """Random codebooks with per-attribute ``sizes``."""
        generator = as_rng(rng)
        if names is None:
            names = [f"factor{i}" for i in range(len(sizes))]
        if len(names) != len(sizes):
            raise CodebookError(
                f"{len(names)} names provided for {len(sizes)} sizes"
            )
        books = [
            Codebook.random(name, dim, size, rng=generator, algebra=algebra)
            for name, size in zip(names, sizes)
        ]
        return cls(books)

    @classmethod
    def random_uniform(
        cls,
        dim: int,
        num_factors: int,
        size: int,
        *,
        rng: RandomState = None,
        algebra: str = "bipolar",
    ) -> "CodebookSet":
        """``num_factors`` codebooks of identical ``size`` (the Table II setup)."""
        return cls.random(dim, [size] * num_factors, rng=rng, algebra=algebra)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.codebooks)

    def __iter__(self) -> Iterator[Codebook]:
        return iter(self.codebooks)

    def __getitem__(self, key) -> Codebook:
        if isinstance(key, str):
            for codebook in self.codebooks:
                if codebook.name == key:
                    return codebook
            raise CodebookError(f"no codebook named {key!r}")
        return self.codebooks[key]

    # -- properties -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.codebooks[0].dim

    @property
    def num_factors(self) -> int:
        return len(self.codebooks)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(cb.size for cb in self.codebooks)

    @property
    def algebra(self) -> str:
        """The shared algebra of every codebook (``"bipolar"`` or ``"fhrr"``)."""
        return self.codebooks[0].algebra

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(cb.name for cb in self.codebooks)

    @property
    def search_space(self) -> int:
        """Size of the combinatorial search space ``prod(M_f)``."""
        product = 1
        for codebook in self.codebooks:
            product *= codebook.size
        return product

    def compose(self, indices: Sequence[int]) -> np.ndarray:
        """Bind the items at ``indices`` into a product vector."""
        if len(indices) != self.num_factors:
            raise CodebookError(
                f"{len(indices)} indices provided for {self.num_factors} factors"
            )
        if self.algebra == "fhrr":
            return fhrr.bind(
                *(
                    codebook.vector(index)
                    for codebook, index in zip(self.codebooks, indices)
                )
            )
        product = np.ones(self.dim, dtype=np.int32)
        for codebook, index in zip(self.codebooks, indices):
            product *= codebook.vector(index).astype(np.int32)
        return product.astype(DEFAULT_DTYPE)

    def describe(self, indices: Sequence[int]) -> Dict[str, str]:
        """Human-readable labels for a factor-index assignment."""
        return {
            codebook.name: codebook.label(index)
            for codebook, index in zip(self.codebooks, indices)
        }


# -- content addressing -------------------------------------------------------
#
# Content hashes are the "same arrays would be programmed" equivalence used
# by the serving registry (:mod:`repro.service.registry`) and by every cache
# spanning codebooks (conductances, packed bit-planes, per-trial stacks):
# two codebooks with identical item vectors hash identically regardless of
# object identity or the float dtype their matrices are stored in.  The
# byte format is pinned: it seeds crossbar programming
# (:func:`repro.cim.rram.batched.conductance_rng`).  Callers read the cached
# ``.fingerprint`` of the value; these functions compute it.


def _matrix_digest_bytes(codebook: Codebook) -> bytes:
    """Canonical byte form of a codebook matrix for content hashing.

    Bipolar entries fit int8 exactly; hashing the compact form keeps the
    key independent of the float dtype the matrix is stored in (and keeps
    bipolar fingerprints byte-identical to the pre-FHRR format).  FHRR
    matrices hash their full complex128 bytes so the key covers every
    phase, not just a sign pattern.
    """
    if codebook.algebra == "fhrr":
        return np.ascontiguousarray(
            codebook.matrix, dtype=fhrr.COMPLEX_DTYPE
        ).tobytes()
    return np.ascontiguousarray(codebook.matrix, dtype=np.int8).tobytes()


def _algebra_tag(algebra: str) -> bytes:
    """Hash-domain separator for non-default algebras.

    Empty for bipolar so pre-existing bipolar fingerprints are unchanged;
    FHRR keys get an explicit tag so a (hypothetical) byte collision with
    a bipolar matrix cannot alias in the registry.
    """
    return b"" if algebra == "bipolar" else f"algebra={algebra};".encode()


def codebook_fingerprint(codebook: Codebook) -> str:
    """Stable content hash of one codebook's item-vector matrix.

    Keyed on geometry plus the entries only - the codebook *name* is
    excluded, since programming an RRAM array depends on the weights,
    not on what the attribute is called.  FHRR fingerprints cover the
    complex phases of every item.
    """
    hasher = hashlib.sha256()
    hasher.update(_algebra_tag(codebook.algebra))
    hasher.update(f"dim={codebook.dim};size={codebook.size}:".encode())
    hasher.update(_matrix_digest_bytes(codebook))
    return hasher.hexdigest()


def codebook_set_fingerprint(codebooks: CodebookSet) -> str:
    """Stable content hash of a codebook set (geometry, names, matrices).

    Two sets with identical algebra, factor names, sizes and item vectors
    map to the same key regardless of object identity.  This is the key
    format of :class:`repro.service.registry.CodebookRegistry`.
    """
    hasher = hashlib.sha256()
    hasher.update(_algebra_tag(codebooks.algebra))
    hasher.update(f"dim={codebooks.dim};factors={codebooks.num_factors}".encode())
    for codebook in codebooks:
        hasher.update(f";{codebook.name}:{codebook.size}:".encode())
        hasher.update(_matrix_digest_bytes(codebook))
    return hasher.hexdigest()
