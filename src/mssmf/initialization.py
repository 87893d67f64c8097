"""Data-driven starting point for the solver.

The core basis and the expanded endmembers are both seeded by vertex
component analysis (pure-pixel extraction); per-pixel concentrations come
from a simplex-constrained least-squares fit against the extracted
expanded endmembers; mixing layers start at random simplex columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import (
    FactorStack,
    RngLike,
    ValidationError,
    _as_rng,
    _checked_count,
    _matrix,
    _prep_arg,
    _suffix_products,
    as_pixel_matrix,
    validate_dims,
)
from .simplex import BETA_FLOOR, DirichletParam, _simplex_lsq, sample_dirichlet
from .solver import _noise_var_at


def vca(pixels, k: int, seed: RngLike = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex component analysis: pick k pixels that span the data simplex.

    Returns (endmembers, indices) where endmembers = Y[:, indices], so the
    extracted columns are actual observed spectra.  The picks are made in the
    affine frame (D27) of one decomposition of the data covariance, each by
    projecting a random direction off the picks so far (D28); the indices are
    those of the pseudo-inverse form, and with exactly duplicated pixels they
    may name another copy of the same spectrum.  The frame assumes the
    simplex model, so the picks are not invariant to a per-pixel scale.

    Each call makes its own decomposition (``init_all`` makes one for both of
    its runs).  k is an integer (Python or numpy); seed is a Generator or
    such an integer of at least 0.  Both are checked before any arithmetic.
    Raises ValidationError when the covariance is not finite (finite data
    whose squared norm overflows) and when it fails the rank rule of (D27).
    """
    y = as_pixel_matrix(pixels).data
    k = _endmember_count(k, y)
    rng = _as_rng(seed)
    return _vca_picks(_vca_frame(y), k, rng)


def _endmember_count(k, y: np.ndarray) -> int:
    """k as an int, if it is a count of at most min(bands, pixels)."""
    m, n = y.shape
    k = _checked_count(k, "endmember count", 1)
    if k > min(m, n):
        raise ValidationError(f"endmember count {k} exceeds min({m}, {n})")
    return k


def _vca_frame(y: np.ndarray):
    """(y, centered data, left singular vectors, singular values) of the
    data covariance: the frame (D27) that VCA's picks read, for any k."""
    n = y.shape[1]
    # an overflow makes the covariance non-finite; the check names it
    with np.errstate(over="ignore", invalid="ignore"):
        centered = y - y.mean(axis=1, keepdims=True)
        cov = (centered @ centered.T) / n
    u, lam, _ = np.linalg.svd(_prep_arg(cov, "vca's data covariance", None))
    return y, centered, u, lam


def _vca_picks(frame, k: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """VCA's k picks (D28) in a frame from ``_vca_frame``; k is a checked count."""
    y, centered, u, lam = frame
    m, n = y.shape
    if k == 1:
        idx = int(np.argmax(np.abs(u[:, 0] @ y)))
        return y[:, [idx]].copy(), np.array([idx])
    if lam[k - 2] <= lam[0] * m * np.finfo(np.float64).eps:
        raise ValidationError(
            f"insufficient spectral diversity: centered rank below {k - 1} "
            f"cannot support {k} endmembers"
        )
    # the (k-1)-dim affine subspace of the centered data, plus a constant
    # coordinate so the vertices stay affinely independent
    x = u[:, : k - 1].T @ centered
    c = np.sqrt((x * x).sum(axis=0).max())
    work = np.vstack([x, np.full((1, n), c)])

    indices = np.zeros(k, dtype=int)
    # orthonormal basis of the picks so far (e_k before the first), grown
    # by one Gram-Schmidt step per pick, run twice so it stays orthogonal
    q = np.zeros((k, k))
    q[-1, 0] = 1.0
    for i in range(k):
        w = rng.standard_normal(k)
        span = q[:, : max(i, 1)]
        f = w - span @ (span.T @ w)
        f /= np.linalg.norm(f)
        indices[i] = int(np.argmax(np.abs(f @ work)))
        v = work[:, indices[i]]
        for _ in range(2):
            v = v - q[:, :i] @ (q[:, :i].T @ v)
        q[:, i] = v / np.linalg.norm(v)
    return y[:, indices].copy(), indices


def scls(pixels, endmembers: np.ndarray) -> np.ndarray:
    """Simplex-constrained least squares, an exact minimizer per pixel.

    Minimizes ||y - B s||^2 with s on the unit simplex for every column y of
    the input.  With more bands than endmembers, one thin QR of B per call
    puts every solve in the endmember space (D25).  The certified rounds
    (D31) solve most pixels of a many-pixel call together.  Each pixel
    they do not certify gets one nonnegative least-squares solve (D24),
    and so does every pixel of a one-pixel call, of endmembers whose Gram
    is not positive definite, or of inputs large enough that the Gram
    products could overflow.  Raises the NNLS engine's RuntimeError if it
    hits its iteration cap.
    """
    # scipy's nnls aborts the interpreter on a matrix with no columns
    b = _matrix(endmembers, "scls's endmembers")
    y = as_pixel_matrix(pixels).data
    if b.shape[0] != y.shape[0]:
        raise ValidationError(f"scls's endmembers: {b.shape[0]} bands, the data has {y.shape[0]}")
    return _simplex_lsq(y, b, "scls")


@dataclass(frozen=True)
class InitResult:
    """Starting state for :func:`mssmf.solver.fit`."""

    stack: FactorStack
    posterior: DirichletParam


def init_all(pixels, layer_sizes, seed: int = 0) -> InitResult:
    """Build a full starting state from the data.

    The core basis is a VCA run at the first layer size; the per-pixel
    concentrations are the simplex least-squares abundances against a
    second VCA run at the expanded size (floored away from zero).  Both
    runs pick in one decomposition of the data covariance (D27); each gives
    the bits a direct ``vca`` call with its generator gives.  Mixing layers
    start at independent uniform-Dirichlet columns; the noise variance
    starts at its closed form (D15) for that state.  Layer sizes and the
    seed (at least 0) are integers (Python or numpy).
    """
    px = as_pixel_matrix(pixels)
    y = px.data
    layers = validate_dims(px.bands, layer_sizes, px.pixels)
    root = np.random.SeedSequence(_checked_count(seed, "seed", 0))
    seed_basis, seed_expanded, seed_mixers = root.spawn(3)

    frame = _vca_frame(y)
    basis, _ = _vca_picks(frame, layers[0], np.random.default_rng(seed_basis))
    # noisy pixels can dip below zero; the basis lives in the nonneg orthant
    basis = np.maximum(basis, 0.0)
    # validate_dims bounds the expanded size by the pixels, not the bands
    k_expanded = _endmember_count(layers[-1], y)
    expanded, _ = _vca_picks(frame, k_expanded, np.random.default_rng(seed_expanded))
    # the centered copy lives no longer than inside a lone vca call
    del frame
    # concentrations start at the abundances themselves (total 1 per pixel,
    # maximally diffuse); the ascent sharpens them as the factors settle
    betas = np.maximum(scls(px, expanded), BETA_FLOOR)

    rng = np.random.default_rng(seed_mixers)
    mixers = tuple(
        sample_dirichlet(np.ones(a), b, rng) for a, b in zip(layers, layers[1:])
    )
    sigma2 = _noise_var_at(y, _suffix_products([basis, *mixers])[0], betas)
    stack = FactorStack(basis=basis, mixers=mixers, noise_var=sigma2)
    return InitResult(stack=stack, posterior=DirichletParam(betas))
