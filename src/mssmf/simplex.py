"""Simplex geometry and Dirichlet math.

Everything the variational solver needs that is not plain linear algebra:
simplex-constrained least squares, trigamma, and Dirichlet moments,
entropy, and sampling.  The entropy calls scipy.special's gammaln and psi;
trigamma shifts every argument up by 6 with the standard recurrence and
then applies the asymptotic series, near machine accuracy across the
domain of interest (see tests for the mpmath comparison).

Every public function checks each array argument once, with the package's
one range test, ``model._prep_arg``.  :func:`dirichlet_entropy` checks its
result too, :func:`_simplex_lsq` its (QR-reduced) system; the solver's
gradient calls :func:`_trigamma`, which checks nothing, on arrays the same
line-search pass has already checked.

Both kernels give each column a result that depends on that column alone,
whatever the array's width and memory layout, so the solver can evaluate a
gathered subset of pixels and keep the values as the whole array's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import nnls

from .model import RngLike, ValidationError, _as_rng, _checked_count, _frozen, _prep_arg

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


def _trigamma(z: np.ndarray) -> np.ndarray:
    """Second derivative of log-gamma of a float64 array that is already
    known to be finite and positive (no check); same shape out.

    Every entry is shifted up by six with psi1(z) = psi1(z + 1) + 1/z^2 and
    then summed with the asymptotic series.  The shift has no masks and no
    data-dependent exit, so an entry's result depends on that entry alone:
    a chunk of columns gets the same bits as the whole array.  Kept in-repo
    because it runs on every concentration pass, where it is faster than a
    masked shift that stops once an entry reaches 6 and than scipy's
    polygamma(1, .) or zeta(2, .) (timings in CHANGES.md).
    """
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
    return out.reshape(z.shape)


def _simplex_lsq(y: np.ndarray, b: np.ndarray, name: str = "fit's mixer sweep") -> np.ndarray:
    """Simplex-constrained least squares, one exact solve per column of y.

    Column j of the result minimizes ||y_j - B s||^2 over the unit simplex.
    On the simplex 1's = 1, so ||y - B s||^2 = ||(y 1' - B) s||^2; each
    column is one nonnegative least-squares solve (Lawson & Hanson's active
    set)

        min_{u >= 0} ||[y 1' - B; 1'] u - e_{m+1}||^2,   s = u / 1'u.

    This is exact: writing u = lam s, the objective is lam^2 q + (lam - 1)^2
    with q = ||(y 1' - B) s||^2, whose minimum over lam, q / (1 + q), rises
    with q, and u = 0 scores 1, so the optimal u is never zero.

    When B (m x k) has more rows than columns, the solves run in the
    k-dimensional space of its columns (Bro & De Jong 1997).  With one thin
    QR B = Q R and a = Q'y, for every s

        ||y - B s||^2 = ||a - R s||^2 + rho^2,   rho^2 = ||y||^2 - ||a||^2,

    because y - Q a is orthogonal to Q.  rho does not depend on s, so the
    minimizers are those of (a, R), whose NNLS has k + 1 rows.  (In the
    homogenized form rho adds rho^2 (1'u)^2, which rescales u and leaves
    s = u / 1'u as it is, so no rho row is needed.)  Raises the NNLS
    engine's RuntimeError if it hits its iteration cap, and ValidationError
    naming the caller, name, if the (reduced) system overflows or a solve
    returns u = 0 (its sum-to-one row lost against rows near 1e35).
    """
    (m, k), n = b.shape, y.shape[1]
    if m > k:
        q, b = np.linalg.qr(b)
        # an overflow makes the reduced system non-finite; the checks name it
        with np.errstate(over="ignore", invalid="ignore"):
            y = q.T @ y
        _prep_arg(b, f"{name}'s reduced endmembers", None)
        m = k
    # on both branches: |y_i - b_il| <= max|y| + max|B|, so no entry of
    # y 1' - B overflows when that Python float sum is finite
    span = float(np.abs(y).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
    _prep_arg(span, f"{name}'s system y 1' - B", None)
    lhs = np.ones((m + 1, k))
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    out = np.empty((k, n))
    for j in range(n):
        np.subtract(y[:, j, None], b, out=lhs[:m])
        u, _ = nnls(lhs, rhs)
        if not u.any():
            raise ValidationError(f"{name}: column {j} of the data is beyond the NNLS range")
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
        conc = _frozen(self.concentration, "Dirichlet concentration", BETA_FLOOR)
        object.__setattr__(self, "concentration", conc)

    @property
    def mean(self) -> np.ndarray:
        """Posterior-mean abundances: each column divided by its total."""
        return self.concentration / self.concentration.sum(axis=0)


def _concentrations(beta, name: str) -> np.ndarray:
    """beta as a float64 vector or K x N matrix of finite, positive
    concentrations with at least one category (row); ValidationError
    naming the fault otherwise."""
    b = _prep_arg(beta, name)
    if not 1 <= b.ndim <= 2 or b.shape[0] == 0:
        raise ValidationError(
            f"{name}: must be 1-D or K x N with at least one category, got shape {b.shape}"
        )
    return b


def _row_order_sums(x: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered (K, N) array, adding the rows in order.

    numpy sums a C-ordered matrix over its rows one row at a time, but sums
    a lone column, or the columns of an F-ordered gather b[:, idx],
    pairwise, which rounds differently for K >= 8.  A lone column takes
    its running sum (cumsum), which is in row order."""
    return np.cumsum(x, axis=0)[-1] if x.shape[1] == 1 else x.sum(axis=0)


def dirichlet_entropy(beta: np.ndarray) -> np.ndarray:
    """Differential entropy of Dirichlet(beta).

    1-D input gives a scalar; a (K, N) matrix gives one entropy per column.
    The concentrations are checked once, and so is the result: a total or
    a log-gamma can overflow at finite concentrations (three entries of
    1e307 do), and any overflow ends in a non-finite result.

    A column's entropy depends on that column alone: every sum over the
    categories adds them in row order (see :func:`_row_order_sums`), so a
    1-D vector, a single column or a gathered subset of columns gets the
    bits the whole matrix gives those columns.
    """
    b = _concentrations(beta, "dirichlet_entropy")
    squeeze = b.ndim == 1
    b = np.ascontiguousarray(b[:, None] if squeeze else b)
    k = b.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        t = _row_order_sums(b)
        h = (
            _row_order_sums(special.gammaln(b))
            - special.gammaln(t)
            + (t - k) * special.psi(t)
            - _row_order_sums((b - 1.0) * special.psi(b))
        )
    _prep_arg(h, "dirichlet_entropy (overflow)", None)
    return float(h[0]) if squeeze else h


def sample_dirichlet(alpha: np.ndarray, n: int, rng: RngLike) -> np.ndarray:
    """Draw n Dirichlet(alpha) vectors as the columns of a (K, n) matrix;
    n is an integer (Python or numpy), at least 0, and rng a Generator or
    such an integer seed."""
    a = _prep_arg(alpha, "sample_dirichlet")
    if a.ndim != 1 or not a.size:
        raise ValidationError(
            f"sample_dirichlet: must be 1-D with at least one category, got shape {a.shape}"
        )
    n = _checked_count(n, "sample count n", 0)
    rng = _as_rng(rng)
    g = rng.standard_gamma(a[:, None], size=(a.size, n))
    total = g.sum(axis=0)
    dead = total == 0.0
    if dead.any():
        # all gamma draws underflowed (tiny alpha); fall back to uniform
        g[:, dead] = 1.0
        total = g.sum(axis=0)
    return g / total
