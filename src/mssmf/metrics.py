"""Evaluation helpers: permutation-aligned endmember error, optimal
assignment, SNR, and singular-value spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import ValidationError, _prep_arg


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of matching estimated endmember columns to the truth.

    permutation[i] is the truth column assigned to estimate column i;
    per_column_sq[i] is the squared distance of that pair; mse is the
    total squared error normalized by K times the truth's squared
    Frobenius norm.
    """

    permutation: np.ndarray
    mse: float
    per_column_sq: np.ndarray


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Optimal assignment on a square cost matrix.

    Returns perm with perm[i] the column assigned to row i, minimizing the
    total cost.  Among all optimal assignments the lexicographically
    smallest perm is returned, found by fixing rows in order to the
    smallest column that keeps the optimum attainable.
    """
    c = _prep_arg(cost, "cost matrix", positive=False)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValidationError(f"cost matrix must be square with at least one row, got {c.shape}")
    k = c.shape[0]

    def optimum(sub: np.ndarray) -> float:
        if sub.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(sub)
        return float(sub[rows, cols].sum())

    total = optimum(c)
    slack = 1e-12 * max(1.0, float(np.abs(c).max())) * k
    perm = np.empty(k, dtype=int)
    cols_left = list(range(k))
    fixed = 0.0
    for i in range(k):
        for pos, j in enumerate(cols_left):
            rest = [jj for jj in cols_left if jj != j]
            sub = c[np.ix_(range(i + 1, k), rest)]
            if fixed + c[i, j] + optimum(sub) <= total + slack:
                perm[i] = j
                fixed += c[i, j]
                cols_left.pop(pos)
                break
        else:
            raise AssertionError("assignment search lost the optimum")
    return perm


def aligned_mse(estimate: np.ndarray, truth: np.ndarray) -> AlignmentResult:
    """Normalized squared endmember error after optimal column matching.

    Columns of the estimate are matched one-to-one to truth columns by
    minimum total squared distance; the reported value is that total
    divided by K times the squared Frobenius norm of the truth.
    """
    a = np.atleast_2d(np.asarray(estimate, dtype=np.float64))
    b = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: estimate {a.shape} vs truth {b.shape}")
    k = a.shape[1]
    diff = a[:, :, None] - b[:, None, :]
    cost = np.einsum("mij,mij->ij", diff, diff)
    perm = hungarian(cost)
    per_col = cost[np.arange(k), perm]
    denom = k * float(np.sum(b * b))
    if denom == 0.0:
        raise ValidationError("truth matrix is identically zero")
    return AlignmentResult(
        permutation=perm,
        mse=float(per_col.sum() / denom),
        per_column_sq=per_col,
    )


def snr_db(endmembers: np.ndarray, abundances: np.ndarray, sigma2: float) -> float:
    """Signal-to-noise ratio in dB of a mixing model with noise variance
    sigma2: signal power is the mean squared entry of the clean mix.

    Computed in logarithms, with the mix scaled by its largest magnitude
    before squaring, so entries near the float64 limits and a subnormal
    sigma2 still give a finite value; zero signal power gives -inf.
    Non-finite inputs and a sigma2 that is not positive raise
    ValidationError.
    """
    sigma2 = _prep_arg(sigma2, "snr_db's sigma2")
    a = np.atleast_2d(_prep_arg(endmembers, "snr_db's endmembers", positive=False))
    z = np.atleast_2d(_prep_arg(abundances, "snr_db's abundances", positive=False))
    clean = a @ z
    peak = np.abs(clean).max()
    if peak == 0.0:
        return -np.inf
    power = np.mean((clean / peak) ** 2)
    return float(10.0 * (2.0 * np.log10(peak) + np.log10(power) - np.log10(sigma2)))


def singular_spectrum(mat: np.ndarray) -> np.ndarray:
    """All singular values of a matrix, descending."""
    a = np.atleast_2d(_prep_arg(mat, "singular_spectrum", positive=False))
    return np.linalg.svd(a, compute_uv=False)
