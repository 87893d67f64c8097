"""Evaluation helpers: permutation-aligned endmember error, optimal
assignment, and singular-value spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import ValidationError, _prep_arg


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of matching estimated endmember columns to the truth.

    permutation[i] is the truth column assigned to estimate column i; mse
    is the total squared error normalized by K times the truth's squared
    Frobenius norm.
    """

    permutation: np.ndarray
    mse: float


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Optimal assignment on a square cost matrix.

    Returns perm with perm[i] the column assigned to row i, minimizing the
    total cost: one call of scipy's linear_sum_assignment.  Where several
    assignments are optimal it returns one of them, always the same one for
    the same costs.
    """
    c = _prep_arg(cost, "cost matrix", positive=False)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
        raise ValidationError(f"cost matrix must be square with at least one row, got {c.shape}")
    return linear_sum_assignment(c)[1]


def aligned_mse(estimate: np.ndarray, truth: np.ndarray) -> AlignmentResult:
    """Normalized squared endmember error after optimal column matching.

    Columns of the estimate are matched one-to-one to truth columns by
    minimum total squared distance; the reported value is that total
    divided by K times the squared Frobenius norm of the truth.  Both
    matrices must be finite; entries large enough to overflow a squared
    distance still fail the assignment's check on the cost, and a truth
    whose squared norm overflows is refused.
    """
    a = np.atleast_2d(_prep_arg(estimate, "aligned_mse's estimate", positive=False))
    b = np.atleast_2d(_prep_arg(truth, "aligned_mse's truth", positive=False))
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: estimate {a.shape} vs truth {b.shape}")
    k = a.shape[1]
    diff = a[:, :, None] - b[:, None, :]
    cost = np.einsum("mij,mij->ij", diff, diff)
    perm = hungarian(cost)
    per_col = cost[np.arange(k), perm]
    with np.errstate(over="ignore"):
        denom = k * float(np.sum(b * b))
    if not denom < np.inf:
        raise ValidationError("aligned_mse's truth: squared norm overflows")
    if denom == 0.0:
        raise ValidationError("truth matrix is identically zero")
    return AlignmentResult(permutation=perm, mse=float(per_col.sum() / denom))


def singular_spectrum(mat: np.ndarray) -> np.ndarray:
    """All singular values of a matrix, descending."""
    a = np.atleast_2d(_prep_arg(mat, "singular_spectrum", positive=False))
    return np.linalg.svd(a, compute_uv=False)
