"""Core data model: the multilayer factor stack and its composition algebra.

A hyperspectral image is a band-by-pixel matrix whose columns are convex
mixtures of expanded endmembers.  The expanded endmember matrix itself is
generated hierarchically: a small nonnegative core basis multiplied by a
chain of column-stochastic mixing layers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

COLUMN_SUM_TOL = 1e-9
NOISE_VAR_FLOOR = 1e-12

RngLike = Union[int, np.random.Generator]


class ValidationError(ValueError):
    """Raised when data violates a structural invariant (shapes, simplex
    feasibility, layer-size ordering)."""


def _floats(x, name: str) -> np.ndarray:
    """x as a float64 array, not copied if it is one; ValidationError
    naming the argument if it is not an array of numbers (a ragged list, a
    string).  The package's one conversion of caller input."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: not an array of numbers") from None


def _prep_arg(x, name: str, least=5e-324) -> np.ndarray:
    """:func:`_floats` of x, if every entry is finite and at least least: None
    (no bound), 0.0 (nonnegative; -0.0 passes), a floor, or by default the
    least positive float64 (positive); ValidationError naming the argument,
    the fault and the bound otherwise.  The package's one range test: two
    reductions, no temporaries.  min and max propagate NaN, so a NaN fails
    like an infinity."""
    z = _floats(x, name)
    if z.size:
        low, high = z.min(), z.max()
        if not (-np.inf < low and high < np.inf):
            raise ValidationError(f"{name}: non-finite values, must be finite")
        if least is not None and not low >= least:
            want = {0.0: "nonnegative", 5e-324: "positive"}.get(least, f"at least {least:g}")
            fault = {0.0: "negative values", 5e-324: "non-positive values"}.get(
                least, f"values below floor {least:g}")
            raise ValidationError(f"{name}: {fault}, must be finite and {want}")
    return z


def _matrix_shape(x, name: str) -> np.ndarray:
    """:func:`_floats` of x, if it is 2-D with at least one row and one
    column; ValidationError naming the argument and its shape otherwise.
    The package's one matrix shape rule: a 1-D array is not read as a row."""
    z = _floats(x, name)
    if z.ndim != 2 or 0 in z.shape:
        raise ValidationError(
            f"{name}: must be 2-D with at least one row and at least one column,"
            f" got shape {z.shape}"
        )
    return z


def _matrix(x, name: str, least=None) -> np.ndarray:
    """:func:`_matrix_shape` of :func:`_prep_arg` of x (at least least), the
    one matrix check; a float64 x is not copied, so a product keeps its bits."""
    return _matrix_shape(_prep_arg(x, name, least), name)


def _frozen(x, name: str, least=None) -> np.ndarray:
    """:func:`_matrix` of x as a read-only float64 C-ordered copy, the one
    a frozen dataclass owns."""
    out = np.array(_matrix(x, name, least), order="C")
    out.setflags(write=False)
    return out


def _checked_count(value, what: str, least: int) -> int:
    """value as an int, if it is an integer (Python or numpy) of at least
    least; ValidationError otherwise (a float, even 2.0, and a bool are
    refused)."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if count < least:
        raise ValidationError(f"{what} must be >= {least}, got {count}")
    return count


def _as_rng(seed: RngLike) -> np.random.Generator:
    """Pass a Generator through; build one from any other seed, which must
    be an integer (Python or numpy) of at least 0 (ValidationError
    otherwise)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked_count(seed, "seed", 0))


def _scalar(value, name: str) -> float:
    """value as a Python float if it is one number; ValidationError otherwise."""
    z = _floats(value, name)
    if z.ndim:
        raise ValidationError(f"{name} must be one number, got {value!r}")
    return float(z)


def _checked_noise_var(value, name: str = "noise variance") -> float:
    """value as a float, if it is one finite number of at least
    ``NOISE_VAR_FLOOR``; ValidationError naming it otherwise."""
    return float(_prep_arg(_scalar(value, name), name, NOISE_VAR_FLOOR))


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
        object.__setattr__(self, "data", _frozen(self.data, "pixel matrix"))

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
    return PixelMatrix(y)


def validate_dims(bands: int, layers: Sequence[int], pixels: int) -> Tuple[int, ...]:
    """Check problem dimensions; raise ValidationError naming the violated
    constraint, or return the layer sizes as a tuple of ints.

    ``layers`` holds the latent sizes (K_1, ..., K_P); the last entry is the
    number of expanded endmembers.  Every size is an integer (Python or
    numpy); sizes must be positive and non-decreasing, with K_1 at most the
    band count and K_P at most the pixel count.
    """
    bands = _checked_count(bands, "band count", 1)
    pixels = _checked_count(pixels, "pixel count", 1)
    layers = tuple(_checked_count(k, "layer size", 1) for k in layers)
    if not layers:
        raise ValidationError("at least one latent layer is required")
    for a, b in zip(layers, layers[1:]):
        if a > b:
            raise ValidationError(
                f"layer sizes must be non-decreasing, got {a} before {b} in {layers}"
            )
    if layers[0] > bands:
        raise ValidationError(f"first layer size {layers[0]} exceeds band count {bands}")
    if layers[-1] > pixels:
        raise ValidationError(f"expanded size {layers[-1]} exceeds pixel count {pixels}")
    return layers


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
        basis = _frozen(self.basis, "core basis", 0.0)
        mixers = tuple(
            _frozen(s, f"mixing layer {l}", 0.0) for l, s in enumerate(self.mixers, start=1)
        )
        cols = basis.shape[1]
        for l, s in enumerate(mixers, start=1):
            if s.shape[0] != cols:
                raise ValidationError(
                    f"mixing layer {l}: expected {cols} rows, got {s.shape[0]}"
                )
            sums = s.sum(axis=0)
            bad = np.abs(sums - 1.0) > COLUMN_SUM_TOL
            if np.any(bad):
                j = int(np.argmax(bad))
                raise ValidationError(
                    f"mixing layer {l}: column {j} sums to {sums[j]:.12g},"
                    f" not 1 within {COLUMN_SUM_TOL:g}"
                )
            cols = s.shape[1]
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mixers", mixers)
        object.__setattr__(self, "noise_var", _checked_noise_var(self.noise_var))

    def replace(self, basis=None, mixers=None, noise_var=None) -> "FactorStack":
        """Return a copy with the given pieces swapped in (revalidates)."""
        return FactorStack(
            basis=self.basis if basis is None else basis,
            mixers=self.mixers if mixers is None else tuple(mixers),
            noise_var=self.noise_var if noise_var is None else noise_var,
        )


def _suffix_products(mats: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The chain product and all its suffixes: tail[i] = mats[i] @ ... @
    mats[-1], multiplied right to left, with tail[len(mats)] an identity.
    A product that overflows holds infinities; its reader checks it."""
    tail = [np.eye(mats[-1].shape[1])]
    with np.errstate(over="ignore"):
        for m in reversed(mats):
            tail.append(m @ tail[-1])
    tail.reverse()
    return tail


def compose_expanded(stack: FactorStack) -> np.ndarray:
    """Multiply the core basis through the mixing chain (D1).

    Returns the expanded endmember matrix, bands x K_P, as a new float64
    array; with no mixing layers it equals the core basis.  Each output
    column is a convex combination of basis columns, so nonnegativity and
    per-column sums of the basis are preserved.  A mixer column may sum to
    1 + ``COLUMN_SUM_TOL``, so a basis near the float64 maximum can
    overflow: ValidationError then.
    """
    tail = _suffix_products([stack.basis, *stack.mixers])
    return _prep_arg(tail[0], "compose_expanded (overflow)", None)
