"""Simplex geometry and Dirichlet math.

Everything the variational solver needs that is not plain linear algebra:
Euclidean projection onto the unit simplex, simplex-constrained least
squares, log-gamma/digamma/trigamma, and Dirichlet moments, entropy, and
sampling.  Log-gamma and digamma come from scipy.special; trigamma shifts
every argument up by 6 with the standard recurrence and then applies the
asymptotic series.  float64 accuracy is near machine level across the
domain of interest (see tests for the mpmath comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import nnls

from .model import ValidationError, _frozen

BETA_FLOOR = 1e-6

# trigamma: 1/z + 1/(2z^2) + sum_n B_{2n} / z^{2n+1}
_TG_COEF = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _prep_arg(x, name: str):
    z = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise ValidationError(f"{name} requires finite positive arguments")
    return z


def log_gamma(x):
    """Natural log of the gamma function for positive arguments.

    Accepts scalars or arrays; the return matches the input shape.
    """
    z = _prep_arg(x, "log_gamma")
    out = special.gammaln(z)
    return float(out) if z.ndim == 0 else out


def digamma(x):
    """Logarithmic derivative of gamma for positive arguments."""
    z = _prep_arg(x, "digamma")
    out = special.psi(z)
    return float(out) if z.ndim == 0 else out


def trigamma(x):
    """Second derivative of log-gamma for positive arguments.

    Every entry is shifted up by six with psi1(z) = psi1(z + 1) + 1/z^2 and
    then summed with the asymptotic series.  The shift has no masks and no
    data-dependent exit, so an entry's result depends on that entry alone:
    a chunk of columns gets the same bits as the whole array.  Kept in-repo
    because it runs on every concentration pass: on the 30x2000 array of
    init_all's concentrations for the wide benchmark scene (half at the
    floor) it takes 1.4 ms, against 4.2 ms for a masked shift that stops
    once an entry reaches 6 and about 19 ms for scipy's polygamma(1, .) or
    zeta(2, .) (Intel Xeon VM, numpy 2.4, scipy 1.17).
    """
    z = _prep_arg(x, "trigamma")
    scalar = z.ndim == 0
    w = np.array(z, ndmin=1)
    acc = np.zeros_like(w)
    # ** -1 reuses the temporary w * w; 1.0 / (w * w) allocates another
    for _ in range(6):
        acc += (w * w) ** -1
        w += 1.0
    r = (w * w) ** -1
    series = np.zeros_like(w)
    for c in reversed(_TG_COEF):
        series += c
        series *= r
    series /= w
    out = 1.0 / w + 0.5 * r + series + acc
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the unit simplex.

    Sort-based thresholding; the result is renormalized so it sums to one
    up to the last ulp regardless of the input scale.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError("project_simplex expects a non-empty 1-D vector")
    return project_simplex_columns(v[:, None])[:, 0]


def project_simplex_columns(mat: np.ndarray) -> np.ndarray:
    """Project every column of a matrix onto the unit simplex.

    Vectorized form of :func:`project_simplex`; shape is preserved.
    """
    v = np.asarray(mat, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValidationError("expected a 2-D array with at least one row")
    if not np.all(np.isfinite(v)):
        raise ValidationError("simplex projection requires finite input")
    k, n = v.shape
    if k == 1:
        return np.ones_like(v)
    u = np.sort(v, axis=0)[::-1]
    css = np.cumsum(u, axis=0) - 1.0
    j = np.arange(1, k + 1, dtype=np.float64)[:, None]
    active = u - css / j > 0
    # the support size is the last index where the threshold test passes
    rho = k - 1 - np.argmax(active[::-1], axis=0)
    theta = css[rho, np.arange(n)] / (rho + 1.0)
    w = np.maximum(v - theta, 0.0)
    s = w.sum(axis=0)
    w /= s
    # push the leftover rounding error into the largest coordinate
    resid = 1.0 - w.sum(axis=0)
    w[np.argmax(w, axis=0), np.arange(n)] += resid
    return w


def _simplex_lsq(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Simplex-constrained least squares, one exact solve per column of y.

    Column j of the result minimizes ||y_j - B s||^2 over the unit simplex.
    On the simplex 1's = 1, so ||y - B s||^2 = ||(y 1' - B) s||^2; each
    column is one nonnegative least-squares solve (Lawson & Hanson's active
    set)

        min_{u >= 0} ||[y 1' - B; 1'] u - e_{m+1}||^2,   s = u / 1'u.

    This is exact: writing u = lam s, the objective is lam^2 q + (lam - 1)^2
    with q = ||(y 1' - B) s||^2, whose minimum over lam, q / (1 + q), rises
    with q, and u = 0 scores 1, so the optimal u is never zero.  Raises the
    NNLS engine's RuntimeError if it hits its iteration cap.
    """
    (m, k), n = b.shape, y.shape[1]
    lhs = np.ones((m + 1, k))
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    out = np.empty((k, n))
    for j in range(n):
        np.subtract(y[:, j, None], b, out=lhs[:m])
        u, _ = nnls(lhs, rhs)
        out[:, j] = u / u.sum()
    return out


@dataclass(frozen=True)
class DirichletParam:
    """Per-pixel variational Dirichlet parameters.

    Parameters
    ----------
    concentration : ndarray, shape (K, N)
        One concentration vector per pixel; entries at least ``BETA_FLOOR``.
    """

    concentration: np.ndarray

    def __post_init__(self):
        conc = _frozen(np.atleast_2d(self.concentration))
        if not np.all(np.isfinite(conc)):
            raise ValidationError("Dirichlet concentration must be finite")
        if np.any(conc < BETA_FLOOR):
            raise ValidationError(
                f"Dirichlet concentration below floor {BETA_FLOOR:g}"
            )
        object.__setattr__(self, "concentration", conc)

    @property
    def total(self) -> np.ndarray:
        """Column sums of the concentration matrix, shape (N,)."""
        return self.concentration.sum(axis=0)

    @property
    def mean(self) -> np.ndarray:
        return dirichlet_mean(self.concentration)


def dirichlet_mean(beta: np.ndarray) -> np.ndarray:
    """Mean of a Dirichlet; columns are treated independently for 2-D input."""
    b = np.asarray(beta, dtype=np.float64)
    return b / b.sum(axis=0)


def dirichlet_second_moment(beta: np.ndarray) -> np.ndarray:
    """Second-moment matrix E[z z^T] of a Dirichlet(beta), beta 1-D."""
    b = np.asarray(beta, dtype=np.float64)
    if b.ndim != 1:
        raise ValidationError("dirichlet_second_moment expects a 1-D vector")
    t = b.sum()
    return (np.diag(b) + np.outer(b, b)) / (t * (t + 1.0))


def dirichlet_entropy(beta: np.ndarray) -> np.ndarray:
    """Differential entropy of Dirichlet(beta).

    1-D input gives a scalar; a (K, N) matrix gives one entropy per column.
    """
    b = np.asarray(beta, dtype=np.float64)
    squeeze = b.ndim == 1
    b = np.atleast_2d(b.T).T if squeeze else b
    k = b.shape[0]
    t = b.sum(axis=0)
    h = (
        log_gamma(b).sum(axis=0)
        - log_gamma(t)
        + (t - k) * digamma(t)
        - ((b - 1.0) * digamma(b)).sum(axis=0)
    )
    return float(h[0]) if squeeze else h


def sample_dirichlet(alpha: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n Dirichlet(alpha) vectors as the columns of a (K, n) matrix."""
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim != 1 or not np.all((a > 0) & np.isfinite(a)):
        raise ValidationError("alpha must be a 1-D positive finite vector")
    g = rng.standard_gamma(a[:, None], size=(a.size, int(n)))
    total = g.sum(axis=0)
    dead = total == 0.0
    if dead.any():
        # all gamma draws underflowed (tiny alpha); fall back to uniform
        g[:, dead] = 1.0
        total = g.sum(axis=0)
    return g / total
