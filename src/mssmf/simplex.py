"""Simplex geometry and Dirichlet math.

Everything the variational solver needs that is not plain linear algebra:
simplex-constrained least squares (D24), trigamma (D8, D9), and Dirichlet
moments (D4), entropy (D7) and sampling.

Every public function checks each array argument once, with the package's
one range test, ``model._prep_arg``.  :func:`dirichlet_entropy` checks its
result too, :func:`_simplex_lsq` its (QR-reduced) system; the solver's
gradient calls :func:`_trigamma`, which checks nothing, on arrays the same
line-search pass has already checked.  Both kernels give each column a
result that depends on that column alone, whatever the array's width and
memory layout, so the solver can evaluate a gathered subset of pixels and
keep the values as the whole array's.

The two functions that call scipy import it where they run: ``synth``
samples from this module, and a process that only builds scenes never
loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RngLike, ValidationError, _as_rng, _checked_count, _frozen, _prep_arg

BETA_FLOOR = 1e-6

# B_2 ... B_14, the coefficients of the trigamma series (D9)
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
    """Trigamma of a float64 array that is already known to be finite and
    positive (no check); same shape out.

    Every entry is shifted up by six with the recurrence (D8), with no mask
    and no data-dependent exit, and then summed by the series (D9), so an
    entry's result depends on that entry alone.  Kept in-repo because it runs
    on every concentration pass, where it is faster than a masked shift and
    than scipy's polygamma(1, .) or zeta(2, .) (timings in CHANGES.md).
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

    Column j of the result minimizes ||y_j - B s||^2 over the unit simplex,
    by one NNLS solve of the homogenized system (D24).  When B (m x k) has
    more rows than columns, the solves run on one thin QR of B, in the
    k-dimensional space of its columns (D25).  Raises the NNLS engine's
    RuntimeError if it hits its iteration cap, and ValidationError naming
    the caller, name, if the (reduced) system overflows or a solve returns
    u = 0 (its sum-to-one row lost against rows near 1e35).
    """
    from scipy.optimize import nnls

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
        """Posterior-mean abundances (D4): each column divided by its total."""
        return self.concentration / self.concentration.sum(axis=0)


def _row_order_sums(x: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered (K, N) array, adding the rows in order.

    numpy sums a C-ordered matrix over its rows one row at a time, but sums
    a lone column, or the columns of an F-ordered gather b[:, idx],
    pairwise, which rounds differently for K >= 8.  A lone column takes
    its running sum (cumsum), which is in row order."""
    return np.cumsum(x, axis=0)[-1] if x.shape[1] == 1 else x.sum(axis=0)


def dirichlet_entropy(beta: np.ndarray) -> np.ndarray:
    """Differential entropy (D7) of Dirichlet(beta), one per column of the
    (K, N) matrix beta: finite, positive, K at least 1 and any N, 0 too.

    The concentrations are checked once, and so is the result: a total or
    a log-gamma can overflow at finite concentrations (three entries of
    1e307 do).  A column's entropy depends on that column alone (see
    :func:`_row_order_sums`), so a single column or a gathered subset of
    columns gets the bits the whole matrix gives those columns.
    """
    from scipy import special

    b = _prep_arg(beta, "dirichlet_entropy")
    if b.ndim != 2 or b.shape[0] == 0:
        raise ValidationError(
            f"dirichlet_entropy: must be K x N with at least one category, got shape {b.shape}"
        )
    b = np.ascontiguousarray(b)
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
    return h


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
