"""Core data model: the multilayer factor stack and its composition algebra.

A hyperspectral image is a band-by-pixel matrix whose columns are convex
mixtures of expanded endmembers.  The expanded endmember matrix itself is
generated hierarchically: a small nonnegative core basis multiplied by a
chain of column-stochastic mixing layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

COLUMN_SUM_TOL = 1e-9
NOISE_VAR_FLOOR = 1e-12

RngLike = Union[int, np.random.Generator, np.random.SeedSequence]


class ValidationError(ValueError):
    """Raised when data violates a structural invariant (shapes, simplex
    feasibility, layer-size ordering)."""


def _as_rng(seed: RngLike) -> np.random.Generator:
    """Pass a Generator through; build one from an int or SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Own a read-only float64 copy of `a`."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def _check_column_simplex(mat: np.ndarray, what: str) -> None:
    # NaN passes both tests below, so rule out non-finite entries first
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{what}: non-finite entries")
    if np.any(mat < 0):
        raise ValidationError(f"{what}: negative entries")
    sums = mat.sum(axis=0)
    bad = np.abs(sums - 1.0) > COLUMN_SUM_TOL
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValidationError(
            f"{what}: column {j} sums to {sums[j]:.12g}, not 1 within {COLUMN_SUM_TOL:g}"
        )


@dataclass(frozen=True)
class PixelMatrix:
    """Observed hyperspectral data, one column per pixel.

    Parameters
    ----------
    data : ndarray, shape (bands, pixels)
        Reflectance values; all entries must be finite.
    """

    data: np.ndarray

    def __post_init__(self):
        data = _frozen(np.atleast_2d(self.data))
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError("pixel matrix must be 2-D with at least one band and one pixel")
        if not np.all(np.isfinite(data)):
            raise ValidationError("pixel matrix contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def pixels(self) -> int:
        return self.data.shape[1]


def as_pixel_matrix(y) -> PixelMatrix:
    """Coerce an array-like (or pass through a PixelMatrix) to PixelMatrix."""
    if isinstance(y, PixelMatrix):
        return y
    return PixelMatrix(np.asarray(y, dtype=np.float64))


def validate_dims(bands: int, layers: Sequence[int], pixels: int) -> None:
    """Check problem dimensions; raise ValidationError naming the violated
    constraint.

    ``layers`` holds the latent sizes (K_1, ..., K_P); the last entry is the
    number of expanded endmembers.  Sizes must be positive and
    non-decreasing, with K_1 at most the band count and K_P at most the
    pixel count.
    """
    layers = tuple(layers)
    if bands < 1:
        raise ValidationError(f"band count must be >= 1, got {bands}")
    if pixels < 1:
        raise ValidationError(f"pixel count must be >= 1, got {pixels}")
    if len(layers) < 1:
        raise ValidationError("at least one latent layer is required")
    if any(k < 1 for k in layers):
        raise ValidationError(f"layer sizes must be >= 1, got {layers}")
    for a, b in zip(layers, layers[1:]):
        if a > b:
            raise ValidationError(
                f"layer sizes must be non-decreasing, got {a} before {b} in {layers}"
            )
    if layers[0] > bands:
        raise ValidationError(f"first layer size {layers[0]} exceeds band count {bands}")
    if layers[-1] > pixels:
        raise ValidationError(f"expanded size {layers[-1]} exceeds pixel count {pixels}")


@dataclass(frozen=True)
class FactorStack:
    """Deterministic unknowns of the multilayer factorization.

    Parameters
    ----------
    basis : ndarray, shape (bands, K_1)
        Nonnegative core basis matrix.
    mixers : sequence of ndarray
        Mixing layers; layer l has shape (K_l, K_{l+1}) and every column
        lies on the unit simplex (within ``COLUMN_SUM_TOL``).
    noise_var : float
        Observation noise variance, finite and at least ``NOISE_VAR_FLOOR``.
    """

    basis: np.ndarray
    mixers: Tuple[np.ndarray, ...] = field(default_factory=tuple)
    noise_var: float = 1.0

    def __post_init__(self):
        basis = _frozen(np.atleast_2d(self.basis))
        if not np.all(np.isfinite(basis)):
            raise ValidationError("core basis contains non-finite entries")
        if np.any(basis < 0):
            raise ValidationError("core basis has negative entries")
        mixers = tuple(_frozen(np.atleast_2d(s)) for s in self.mixers)
        cols = basis.shape[1]
        for l, s in enumerate(mixers, start=1):
            if s.shape[0] != cols:
                raise ValidationError(
                    f"mixing layer {l}: expected {cols} rows, got {s.shape[0]}"
                )
            _check_column_simplex(s, f"mixing layer {l}")
            cols = s.shape[1]
        if not np.isfinite(self.noise_var):
            raise ValidationError(f"noise variance {self.noise_var!r} is not finite")
        if not (self.noise_var >= NOISE_VAR_FLOOR):
            raise ValidationError(
                f"noise variance {self.noise_var!r} below floor {NOISE_VAR_FLOOR:g}"
            )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mixers", mixers)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    @property
    def bands(self) -> int:
        return self.basis.shape[0]

    @property
    def layer_sizes(self) -> Tuple[int, ...]:
        return (self.basis.shape[1],) + tuple(s.shape[1] for s in self.mixers)

    @property
    def depth(self) -> int:
        return len(self.mixers) + 1

    @property
    def expanded_count(self) -> int:
        return self.layer_sizes[-1]

    def replace(self, basis=None, mixers=None, noise_var=None) -> "FactorStack":
        """Return a copy with the given pieces swapped in (revalidates)."""
        return FactorStack(
            basis=self.basis if basis is None else basis,
            mixers=self.mixers if mixers is None else tuple(mixers),
            noise_var=self.noise_var if noise_var is None else noise_var,
        )


@dataclass(frozen=True)
class ExpandedEndmembers:
    """Expanded endmember matrix, one column per endmember variant."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(np.atleast_2d(self.data)))


def _suffix_products(mats: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The chain product and all its suffixes: tail[i] = mats[i] @ ... @
    mats[-1], multiplied right to left, with tail[len(mats)] an identity."""
    tail = [np.eye(mats[-1].shape[1])]
    for m in reversed(mats):
        tail.append(m @ tail[-1])
    tail.reverse()
    return tail


def compose_expanded(stack: FactorStack) -> ExpandedEndmembers:
    """Multiply the core basis through the mixing chain.

    Returns the expanded endmember matrix; with no mixing layers this is the
    core basis itself.  Each output column is a convex combination of basis
    columns, so nonnegativity and per-column sums of the basis are preserved.
    """
    return ExpandedEndmembers(_suffix_products([stack.basis, *stack.mixers])[0])
