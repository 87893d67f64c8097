"""Evaluation helpers: permutation-aligned endmember error and
singular-value spectra.

Only :func:`aligned_mse` needs scipy, and it imports it where it runs, so
``mssmf svd`` never loads scipy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ValidationError, _matrix, _prep_arg


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of matching estimated endmember columns to the truth.

    permutation[i] is the truth column assigned to estimate column i; mse
    is the total squared error normalized by K times the truth's squared
    Frobenius norm.
    """

    permutation: np.ndarray
    mse: float


def aligned_mse(estimate: np.ndarray, truth: np.ndarray) -> AlignmentResult:
    """Normalized squared endmember error after optimal column matching.

    The aligned MSE (D30): one call of scipy's linear_sum_assignment matches
    the columns (on tied costs, one optimal matching, the same one for the
    same input).  Both matrices must be finite and have at least one column;
    entries large enough to overflow a difference or a squared distance fail
    the check on the cost matrix, and a truth whose squared norm overflows
    is refused.
    """
    from scipy.optimize import linear_sum_assignment

    a = _matrix(estimate, "aligned_mse's estimate")
    b = _matrix(truth, "aligned_mse's truth")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: estimate {a.shape} vs truth {b.shape}")
    k = a.shape[1]
    # an overflow makes the cost non-finite; the check names it
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a[:, :, None] - b[:, None, :]
        cost = np.einsum("mij,mij->ij", diff, diff)
    perm = linear_sum_assignment(_prep_arg(cost, "cost matrix", None))[1]
    per_col = cost[np.arange(k), perm]
    with np.errstate(over="ignore"):
        denom = k * float(np.sum(b * b))
    if not denom < np.inf:
        raise ValidationError("aligned_mse's truth: squared norm overflows")
    if denom == 0.0:
        raise ValidationError("truth matrix is identically zero")
    return AlignmentResult(permutation=perm, mse=float(per_col.sum() / denom))


def singular_spectrum(mat: np.ndarray) -> np.ndarray:
    """All singular values of a matrix, descending, checked finite."""
    svals = np.linalg.svd(_matrix(mat, "singular_spectrum's input"), compute_uv=False)
    return _prep_arg(svals, "singular_spectrum's singular values (overflow)", None)
