"""Synthetic data with controlled endmember variability.

Ground-truth expanded endmembers are variants of a few smooth base
spectra, produced by multiplying each base with a smooth piecewise-linear
random field close to one.  Abundances are uniform-Dirichlet columns and
noise is white Gaussian calibrated to a target SNR.  Every seed is a numpy
Generator or an integer (Python or numpy) of at least 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import (
    PixelMatrix, RngLike, ValidationError, _as_rng, _checked_count, _matrix, _prep_arg,
    _scalar,
)
from .simplex import sample_dirichlet

DEFAULT_GAMMA = 0.25
_KNOTS = 10
_POOL = 200


@dataclass(frozen=True)
class SynthBundle:
    """One generated scene: the noisy pixels, the true abundances, and the
    noise variance actually used (0 when noiseless).  The endmembers are the
    caller's input to :func:`gen_dataset` and are not repeated here."""

    pixels: PixelMatrix
    abundances: np.ndarray
    sigma2: float


def builtin_bases(bands: int = 198) -> np.ndarray:
    """Three deterministic smooth base spectra on [0.05, 0.95].

    Each column is a fixed mixture of Gaussian bumps over the band axis;
    no randomness, so every caller sees identical spectra.  bands is an
    integer (Python or numpy) of at least 2.
    """
    bands = _checked_count(bands, "builtin bases' band count", 2)
    x = np.linspace(0.0, 1.0, bands)

    def bump(center, width, height):
        return height * np.exp(-0.5 * ((x - center) / width) ** 2)

    curves = [
        bump(0.22, 0.10, 0.55) + bump(0.65, 0.18, 0.35) + 0.08,
        bump(0.45, 0.14, 0.60) + bump(0.85, 0.08, 0.25) + 0.10,
        bump(0.10, 0.06, 0.30) + bump(0.55, 0.25, 0.45) + bump(0.92, 0.05, 0.20) + 0.06,
    ]
    out = np.stack(curves, axis=1)
    return np.clip(out, 0.05, 0.95)


def gen_variants(
    base: np.ndarray,
    count: int,
    gamma: float = DEFAULT_GAMMA,
    *,
    seed: RngLike = 0,
) -> np.ndarray:
    """Multiplicative smooth variants of one base spectrum.

    Every variant is base * field, where the field interpolates linearly
    between ``_KNOTS`` (10) equally spaced values drawn uniformly from
    [1 - gamma, 1 + gamma].  Consequently each band i of each variant v
    satisfies |v_i - base_i| <= gamma * base_i, and nonnegativity is
    preserved.  The base must be finite; count is an integer.
    """
    a = _prep_arg(base, "base spectrum", 0.0)
    if a.ndim != 1 or a.size < 1:
        raise ValidationError(f"base spectrum must be 1-D with at least one band, got {a.shape}")
    gamma = _scalar(gamma, "gamma")
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0, 1), got {gamma!r}")
    count = _checked_count(count, "count", 1)
    rng = _as_rng(seed)
    m = a.size
    grid = np.arange(m, dtype=np.float64)
    knot_x = np.linspace(0.0, m - 1.0, _KNOTS)
    out = np.empty((m, count))
    for j in range(count):
        knot_vals = rng.uniform(1.0 - gamma, 1.0 + gamma, size=_KNOTS)
        out[:, j] = a * np.interp(grid, knot_x, knot_vals)
    return out


def assemble_ground_truth(
    bases: np.ndarray,
    pick: int = 10,
    gamma: float = DEFAULT_GAMMA,
    seed: RngLike = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Ground-truth expanded endmembers from a small collection of bases.

    For each base column, generates a pool of ``_POOL`` (200) variants and
    picks `pick` of them uniformly without replacement.  Returns
    (endmembers, labels) where labels[j] is the base index variant j came
    from.  pick is an integer; :func:`gen_variants` checks each base and
    gamma.
    """
    b = _matrix(bases, "assemble_ground_truth's base spectrum matrix")
    pick = _checked_count(pick, "pick", 1)
    if pick > _POOL:
        raise ValidationError(f"cannot pick {pick} from a pool of {_POOL} variants")
    rng = _as_rng(seed)
    groups = []
    labels = []
    for idx in range(b.shape[1]):
        pool = gen_variants(b[:, idx], _POOL, gamma, seed=rng)
        chosen = rng.choice(_POOL, size=pick, replace=False)
        groups.append(pool[:, chosen])
        labels.extend([idx] * pick)
    return np.hstack(groups), np.asarray(labels, dtype=int)


def gen_dataset(
    endmembers: np.ndarray,
    n_pixels: int,
    snr_db: float,
    seed: RngLike = 0,
) -> SynthBundle:
    """Mix ground-truth endmembers with Dirichlet(1) abundances and add
    white Gaussian noise at the requested SNR (inf means noiseless).

    An SNR whose noise scale 10^(snr_db / 10) overflows, above about
    3 083 dB, is noiseless too.  A noise variance that is not finite (an
    SNR below about -3 083 dB, or a signal power that overflows) raises
    ValidationError naming snr_db.

    The mixture reads the endmembers in F order, so their layout does not
    change the pixels.  At most two bands x pixels arrays are alive at once:
    the noise is drawn into its own array, the clean mixture is added into
    it in place (the same bits as clean + noise, since addition commutes),
    and the mixture is released before :class:`PixelMatrix` takes its copy."""
    a = _matrix(endmembers, "gen_dataset's endmembers")
    n_pixels = _checked_count(n_pixels, "n_pixels", 1)
    snr_db = _scalar(snr_db, "snr_db")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValidationError(f"snr_db must be finite or +inf, got {snr_db!r}")
    rng = _as_rng(seed)
    m, k = a.shape
    z = sample_dirichlet(np.ones(k), n_pixels, rng)
    clean = np.asfortranarray(a) @ z
    try:
        scale = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        scale = np.inf
    if scale == np.inf:
        sigma2 = 0.0
        y = clean
    else:
        # an underflowed scale or an overflowed power is caught below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sigma2 = float(np.sum(clean * clean) / (scale * m * n_pixels))
        if not np.isfinite(sigma2):
            raise ValidationError(f"noise variance at snr_db={snr_db!r} is not finite")
        y = rng.normal(0.0, np.sqrt(sigma2), size=clean.shape)
        y += clean
    del clean
    return SynthBundle(pixels=PixelMatrix(y), abundances=z, sigma2=sigma2)
