"""Simplex geometry and Dirichlet math.

Everything the variational solver needs that is not plain linear algebra:
simplex-constrained least squares (D24) and its certified rounds over many
pixels (D31), trigamma (D8, D9), and Dirichlet moments (D4), entropy (D7)
and sampling; also the pixel-block split and the reduced factor (D22),
which the solver uses too.

Every public function checks each array argument once, with the package's
one range test, ``model._prep_arg``.  :func:`dirichlet_entropy` checks its
result too, :func:`_simplex_lsq` its (QR-reduced) system and
:func:`_column_solver` each column's; the solver's gradient calls
:func:`_trigamma`, which checks nothing, on arrays the same line-search
pass has already checked.  The entropy and trigamma kernels give each
column a result that depends on that column alone, whatever the array's
width and memory layout, so the solver can evaluate a gathered subset of
pixels and keep the values as the whole array's.

The two functions that call scipy import it where they run: ``synth``
samples from this module, and a process that only builds scenes never
loads scipy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .model import RngLike, ValidationError, _as_rng, _checked_count, _frozen, _prep_arg

BETA_FLOOR = 1e-6
# widest pixel block of the concentration passes and of scls's rounds
_BLOCK_PIXELS = 1024

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

    Every entry is shifted up by six with the recurrence (D8), in three
    pairs of one reciprocal each, with no mask and no data-dependent exit,
    and then summed by the series (D9) in 1/(z + 6), so an entry's result
    depends on that entry alone.  Kept in-repo because it runs on every
    concentration pass, where it is faster than a masked shift and than
    scipy's polygamma(1, .) or zeta(2, .) (timings in CHANGES.md).
    """
    w = np.array(z, ndmin=1)
    u, v, acc = np.empty_like(w), np.empty_like(w), np.zeros_like(w)
    for _ in range(3):
        # 1/a^2 + 1/(a + 1)^2 = u (u + 2) for a = w, u = 1/(a (a + 1)); 0 if a (a + 1) overflows
        with np.errstate(over="ignore"):
            np.reciprocal(np.multiply(w, np.add(w, 1.0, out=u), out=u), out=u)
        acc += np.multiply(u, np.add(u, 2.0, out=v), out=v)
        w += 2.0
    # inv (1 + inv (1/2 + inv (B_2 + r (B_4 + ... + r B_14)))), inv = 1/w, r = inv^2
    inv = np.reciprocal(w, out=w)
    r = np.multiply(inv, inv, out=u)
    series = np.multiply(r, _TG_COEF[-1], out=v)
    for c, x in zip((*_TG_COEF[-2::-1], 0.5, 1.0), (r,) * 5 + (inv,) * 3):
        series += c
        series *= x
    series += acc
    return series.reshape(z.shape)


def _pixel_blocks(n: int) -> List[Tuple[int, int]]:
    """ceil(n / _BLOCK_PIXELS) contiguous (lo, hi) pixel blocks of near-equal
    width (one when n is 0), a split that depends on n alone."""
    count = max(-(-n // _BLOCK_PIXELS), 1)
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def _reduced_factor(gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(L, pinv(L')) of a symmetric PSD gram = L'L, both r x k with L of full
    row rank, by the eigenvalue cut of (D22); gram may be singular."""
    lam, vec = np.linalg.eigh(gram)
    keep = lam > lam[-1] * gram.shape[0] * np.finfo(np.float64).eps
    root = np.sqrt(lam[keep])
    return root[:, None] * vec[:, keep].T, vec[:, keep].T / root[:, None]


def _column_solver(
    b: np.ndarray, name: str, whose: str
) -> Callable[[np.ndarray, int], np.ndarray]:
    """The one-column solve (D24) against B (m x k, used as given): a
    function of (y, j), an m-vector and its column index, that returns y's
    simplex least-squares point.  The buffers are allocated once, so a
    sweep pays for them once.  Each call checks y's system y 1' - B for
    overflow and refuses an NNLS solution of zero, naming column j of
    whose; both errors name the caller, name.  Raises the NNLS engine's
    RuntimeError if it hits its iteration cap."""
    from scipy.optimize import nnls

    m, k = b.shape
    lhs = np.ones((m + 1, k))
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    system = f"{name}'s system y 1' - B"
    b_max = float(np.abs(b).max(initial=0.0))

    def solve(y: np.ndarray, j: int) -> np.ndarray:
        # |y_i - b_il| <= max|y| + max|B|, so no entry of y 1' - B
        # overflows when that Python float sum is finite
        _prep_arg(float(np.abs(y).max(initial=0.0)) + b_max, system, None)
        np.subtract(y[:, None], b, out=lhs[:m])
        u, _ = nnls(lhs, rhs)
        if not u.any():
            raise ValidationError(f"{name}: column {j} of {whose} is beyond the NNLS range")
        return u / u.sum()

    return solve


def _certified_rounds(g: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The certified rounds (D31) for min ||a - R s||^2 over the simplex,
    one problem per column of c = R'a, with G = R'R positive definite by
    the cut of (D22) and G and c finite.  Returns rounds, the round that
    certified each column, and writes each certified column's exact
    minimizer to that column of out (k x n); where rounds is -1, no round
    certified the column, and its column of out is left as it was."""
    k, n = c.shape
    border = np.ones((k + 1, k + 1))
    border[:k, :k] = g
    border[k, k] = 0.0
    # one row per column of c: its right-hand side [c' 1] and its free set,
    # which always holds the last entry, the multiplier
    rhs = np.ones((n, k + 1))
    rhs[:, :k] = c.T
    free = np.ones((n, k + 1), dtype=bool)
    rounds = np.full(n, -1)
    cols = np.arange(n)
    # every row's count of wrong entries in the last two rounds
    before = np.full((2, n), k + 1)
    x = np.linalg.solve(border, rhs.T).T
    for t in itertools.count():
        # roundoff can overflow a far-off solution; its row fails below
        with np.errstate(over="ignore", invalid="ignore"):
            lam = x @ border
            lam -= rhs
        wrong = np.where(free, ~(x > 0.0), ~(lam >= 0.0))[:, :k]
        count = wrong.sum(axis=1)
        finite = np.isfinite(lam).all(axis=1)
        ok = finite & (count == 0)
        sol = x[ok, :k]
        out[:, cols[ok]] = (sol / sol.sum(axis=1, keepdims=True)).T
        rounds[cols[ok]] = t
        # the full exchange: wrong entries of the free set leave it, wrong
        # bounds enter it; a row whose count has not fallen in two rounds,
        # or whose free set would empty, leaves the rounds
        free[:, :k] ^= wrong
        go = finite & ~ok & (count < before[1]) & free[:, :k].any(axis=1)
        if not go.any():
            return rounds
        before = np.stack([count, before[0]])[:, go]
        cols, free, rhs = cols[go], free[go], rhs[go]
        x = np.zeros(free.shape)
        size = free.sum(axis=1)
        for s in np.flatnonzero(np.bincount(size)):
            # one stacked solve per free-set size, of the bordered systems
            # on each row's free set
            sel = np.flatnonzero(size == s)
            idx = np.nonzero(free[sel])[1].reshape(sel.size, s)
            systems = border[idx[:, :, None], idx[:, None, :]]
            x[sel[:, None], idx] = np.linalg.solve(systems, rhs[sel[:, None], idx, None])[..., 0]


def _simplex_lsq(y: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """Simplex-constrained least squares, an exact minimizer per column of y.

    Column j of the result minimizes ||y_j - B s||^2 over the unit simplex.
    When B (m x k) has more rows than columns, everything runs on one thin
    QR of B, in the k-dimensional space of its columns (D25).  With more
    than one column, the certified rounds (D31) solve the columns they
    certify, in blocks of at most ``_BLOCK_PIXELS``, when G = B'B is
    positive definite (D22) and no product can overflow; every other
    column gets one NNLS solve of the homogenized system (D24).  Raises
    the NNLS engine's RuntimeError if it hits its iteration cap, and
    ValidationError naming the caller, name, if the (reduced) system
    overflows or a solve returns u = 0 (its sum-to-one row lost against
    rows near 1e35).
    """
    (m, k), n = b.shape, y.shape[1]
    if m > k:
        q, b = np.linalg.qr(b)
        # an overflow makes the reduced system non-finite; the checks name it
        with np.errstate(over="ignore", invalid="ignore"):
            y = q.T @ y
        _prep_arg(b, f"{name}'s reduced endmembers", None)
    # on both branches: |y_i - b_il| <= max|y| + max|B|, so no entry of
    # y 1' - B overflows when that Python float sum is finite
    span = float(np.abs(y).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
    _prep_arg(span, f"{name}'s system y 1' - B", None)
    out = np.empty((k, n))
    left = range(n)
    # every entry of G and of c = B'y is at most k span^2 in size
    if n > 1 and k * span * span < np.inf:
        g = b.T @ b
        if _reduced_factor(g)[0].shape[0] == k:
            left = []
            for lo, hi in _pixel_blocks(n):
                rounds = _certified_rounds(g, b.T @ y[:, lo:hi], out[:, lo:hi])
                left.extend(lo + np.flatnonzero(rounds < 0))
    solve = _column_solver(b, name, "the data")
    for j in left:
        out[:, j] = solve(y[:, j], j)
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
