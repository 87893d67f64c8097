"""Variational maximum-likelihood fitting of the multilayer factorization.

The per-pixel abundance posterior is approximated by an independent
Dirichlet for every pixel.  Coordinate ascent on the evidence lower bound
alternates four blocks per outer iteration: the Dirichlet concentrations
(projected gradient ascent with a per-pixel Armijo line search), the core
basis (solved exactly, one nonnegative least-squares problem per band
row), each mixing layer (one sweep over its columns, each column solved
exactly as a simplex least-squares problem with the others fixed: block
coordinate descent in the manner of HALS for NMF), and the noise variance
(closed form).  Every block is accepted only if the bound does not
decrease, so the traced objective is non-decreasing by construction.

The concentration block dominates the cost: each evaluation of the
per-pixel bound is a log-gamma/digamma sweep over every concentration.  The
line search therefore evaluates each (pixel, point) pair once.  An accepted
candidate's value and gradient pieces (totals, g @ betas, tr(G P), c . beta)
become the next pass's starting value and feed its gradient.  Each search
starts at the first step that could pass its Armijo test, so the bound is
not evaluated at steps that are sure to be rejected.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from .model import FactorStack, ValidationError, as_pixel_matrix, compose_expanded
from .simplex import (
    BETA_FLOOR,
    DirichletParam,
    _simplex_lsq,
    dirichlet_entropy,
    log_gamma,
    trigamma,
)

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
# relative bound change below which fit reports a decrease, not roundoff
_BOUND_DROP_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the outer coordinate-ascent loop.

    rel_elbo_tol stops the loop once the relative bound improvement
    (F_t - F_{t-1}) / (1 + |F_{t-1}|) falls strictly below it, so a
    tolerance of zero runs max_outer_iters iterations unless the bound
    drops.

    beta_steps_per_outer is the number of concentration ascent passes per
    outer iteration.  The factor blocks take no budget: the basis is solved
    exactly and each mixer makes one exact column sweep per iteration (see
    :func:`update_factor`).
    """

    max_outer_iters: int = 100
    beta_steps_per_outer: int = 10
    rel_elbo_tol: float = 1e-7
    sigma2_floor: float = 1e-12

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValidationError("max_outer_iters must be >= 1")
        if self.beta_steps_per_outer < 1:
            raise ValidationError("beta_steps_per_outer must be >= 1")
        if not (self.rel_elbo_tol >= 0):
            raise ValidationError("rel_elbo_tol must be >= 0")
        if not (self.sigma2_floor > 0):
            raise ValidationError("sigma2_floor must be > 0")


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration record of the fit: bound value, noise variance, wall
    time in milliseconds, and why the loop stopped: "max_iters",
    "converged" (improvement below rel_elbo_tol), "bound_decreased"
    (relative change below -1e-10, beyond roundoff) or "non_finite" (the
    bound of the last iteration is NaN or infinite)."""

    elbo: np.ndarray
    sigma2: np.ndarray
    millis: np.ndarray
    stop_reason: str

    def __len__(self) -> int:
        return self.elbo.size


@dataclass(frozen=True)
class FitResult:
    stack: FactorStack
    posterior: DirichletParam
    trace: FitTrace

    @property
    def elbo(self) -> float:
        return float(self.trace.elbo[-1])

    @property
    def abundances(self) -> np.ndarray:
        """Posterior-mean abundance matrix, one simplex column per pixel."""
        return self.posterior.mean


def _moment_sums(betas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean matrix and summed second moment of the per-pixel Dirichlets.

    Returns (mean, pbar) with mean of shape (K, N) and
    pbar = sum_n E[z_n z_n^T] of shape (K, K).
    """
    total = betas.sum(axis=0)
    denom = total * (total + 1.0)
    mean = betas / total
    weighted = betas / denom
    pbar = np.diag(weighted.sum(axis=1)) + betas @ weighted.T
    return mean, pbar


def _resid_sum(y: np.ndarray, b: np.ndarray, betas: np.ndarray) -> float:
    """Total expected squared reconstruction error over all pixels."""
    mean, pbar = _moment_sums(betas)
    g = b.T @ b
    return float(
        np.sum(y * y) - 2.0 * np.sum(y * (b @ mean)) + np.sum(g * pbar)
    )


def _trace_gp(
    g: np.ndarray, betas: np.ndarray, denom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pixel tr(G E[z z^T]) for Dirichlet(betas) columns.

    denom is total * (total + 1) per pixel; returns (g @ betas, trace).
    """
    gb = g @ betas
    return gb, (np.diag(g) @ betas + (betas * gb).sum(axis=0)) / denom


def _resid_per_pixel(y: np.ndarray, b: np.ndarray, betas: np.ndarray) -> np.ndarray:
    total = betas.sum(axis=0)
    denom = total * (total + 1.0)
    _, tr_gp = _trace_gp(b.T @ b, betas, denom)
    return (y * y).sum(axis=0) - 2.0 * (y * (b @ (betas / total))).sum(axis=0) + tr_gp


def elbo_terms(y: np.ndarray, b: np.ndarray, betas: np.ndarray, sigma2: float) -> float:
    """Evidence lower bound from raw arrays, averaged over pixels.

    Exists alongside :func:`elbo` so tests can evaluate the bound at
    points that violate the feasibility constraints (finite-difference
    probes leave the simplex).
    """
    y = np.asarray(y, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    m, n = y.shape
    k = betas.shape[0]
    rsum = _resid_sum(y, b, betas)
    ent = dirichlet_entropy(betas).sum()
    const = n * (-0.5 * m * np.log(2.0 * np.pi * sigma2) + log_gamma(float(k)))
    return float((const - rsum / (2.0 * sigma2) + ent) / n)


def _check_state(pixels, stack: FactorStack, posterior: DirichletParam):
    px = as_pixel_matrix(pixels)
    betas = posterior.concentration
    if betas.shape != (stack.expanded_count, px.pixels):
        raise ValidationError(
            f"posterior concentrations {betas.shape} do not match "
            f"({stack.expanded_count}, {px.pixels})"
        )
    if stack.bands != px.bands:
        raise ValidationError(
            f"stack bands {stack.bands} do not match data bands {px.bands}"
        )
    return px, betas


def elbo(pixels, stack: FactorStack, posterior: DirichletParam) -> float:
    """Evidence lower bound of a feasible model state, averaged over pixels."""
    px, betas = _check_state(pixels, stack, posterior)
    return elbo_terms(px.data, compose_expanded(stack).data, betas, stack.noise_var)


@dataclass(frozen=True)
class ElboBreakdown:
    """The bound split into its pieces.

    total = -(bands/2)*log(2*pi*sigma2) - mean(per_pixel_residual)/(2*sigma2)
            + log_const + entropy_sum/pixels
    """

    total: float
    per_pixel_residual: np.ndarray
    entropy_sum: float
    log_const: float


def elbo_breakdown(pixels, stack: FactorStack, posterior: DirichletParam) -> ElboBreakdown:
    """Like :func:`elbo` but keeps the per-term decomposition.

    The per-pixel residual is an expectation of a squared norm, so it is
    clamped at zero to hide roundoff on perfectly reconstructed pixels.
    """
    px, betas = _check_state(pixels, stack, posterior)
    b = compose_expanded(stack).data
    resid = np.maximum(_resid_per_pixel(px.data, b, betas), 0.0)
    ent = float(dirichlet_entropy(betas).sum())
    const = float(log_gamma(float(stack.expanded_count)))
    total = (
        -0.5 * px.bands * np.log(2.0 * np.pi * stack.noise_var)
        - resid.mean() / (2.0 * stack.noise_var)
        + const
        + ent / px.pixels
    )
    return ElboBreakdown(
        total=float(total),
        per_pixel_residual=resid,
        entropy_sum=ent,
        log_const=const,
    )


def grad_factors(
    y: np.ndarray, stack: FactorStack, betas: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Gradient of the averaged bound with respect to the basis and every
    mixing layer, via the chain rule through the expanded product."""
    y = np.asarray(y, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    n = y.shape[1]
    mean, pbar = _moment_sums(betas)
    b = compose_expanded(stack).data
    grad_b = -(b @ pbar - y @ mean.T) / (stack.noise_var * n)
    mats = [stack.basis, *stack.mixers]
    tail = _suffix_products(mats)
    grad_basis = grad_b @ tail[1].T
    grads_mix = []
    prefix = stack.basis
    for l, s in enumerate(stack.mixers):
        grads_mix.append(prefix.T @ grad_b @ tail[l + 2].T)
        prefix = prefix @ s
    return grad_basis, grads_mix


def grad_beta(y: np.ndarray, b: np.ndarray, betas: np.ndarray, sigma2: float) -> np.ndarray:
    """Gradient of the averaged bound with respect to every concentration."""
    y = np.asarray(y, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    n = y.shape[1]
    c = b.T @ y
    g = b.T @ b
    _, pieces = _beta_point(c, g, betas, sigma2)
    return _beta_gradient(c, g, betas, sigma2, pieces) / n


def _suffix_products(mats: Sequence[np.ndarray]) -> List[np.ndarray]:
    """tail[i] = product of mats[i:], with tail[len] an identity."""
    k_last = mats[-1].shape[1]
    tail = [np.eye(k_last)]
    for m in reversed(mats):
        tail.append(m @ tail[-1])
    tail.reverse()
    return tail


def _beta_point(
    c: np.ndarray, g: np.ndarray, betas: np.ndarray, sigma2: float
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Per-pixel bound at betas, up to beta-independent constants.

    c = B^T Y and g = B^T B are fixed.  Also returns the pieces
    :func:`_beta_gradient` reuses at the same point: (total, denom,
    g @ betas, tr(G E[z z^T]), c . betas), one column per pixel.
    """
    total = betas.sum(axis=0)
    denom = total * (total + 1.0)
    gb, tr_gp = _trace_gp(g, betas, denom)
    cb = (c * betas).sum(axis=0)
    value = -(-2.0 * cb / total + tr_gp) / (2.0 * sigma2) + dirichlet_entropy(betas)
    return value, (total, denom, gb, tr_gp, cb)


def _beta_gradient(
    c: np.ndarray,
    g: np.ndarray,
    betas: np.ndarray,
    sigma2: float,
    pieces: Tuple[np.ndarray, ...],
) -> np.ndarray:
    """d(per-pixel bound)/d(betas) from the pieces :func:`_beta_point`
    returned at the same betas."""
    total, denom, gb, tr_gp, cb = pieces
    k = betas.shape[0]
    d_resid = -2.0 * (c - cb / total) / total
    d_resid += (np.diag(g)[:, None] + 2.0 * gb - (2.0 * total + 1.0) * tr_gp) / denom
    d_ent = (total - k) * trigamma(total) - (betas - 1.0) * trigamma(betas)
    return -d_resid / (2.0 * sigma2) + d_ent


def _beta_ascent_chunk(
    c: np.ndarray,
    g: np.ndarray,
    betas: np.ndarray,
    yss: np.ndarray,
    sigma2: float,
    passes: int,
) -> np.ndarray:
    """Run `passes` clamped gradient-ascent steps on a block of pixels.

    Each pass takes one Armijo-backtracked step per pixel; a pixel whose
    search fails keeps its current concentrations, so the per-pixel bound
    never decreases.  The bound and its gradient pieces are evaluated once
    at the starting point; after that every pixel carries the value and
    pieces of the candidate its search last accepted, so the next pass
    starts from them and no point is evaluated twice.

    A search starts at the first step it could accept.  yss holds each
    pixel's ||y||^2.  No concentrations lift the per-pixel bound above
    ceil = yss / (2 sigma2) - log Gamma(K): its residual part is
    -(E||y - B z||^2 - yss) / (2 sigma2) <= yss / (2 sigma2), and a
    Dirichlet's entropy is at most -log Gamma(K), reached at beta = 1.  At
    step s the Armijo demand is at least c1 * s * sum_k max(g_k, 0)^2:
    coordinates with g_k > 0 move by s * g_k and are never clamped, and
    clamped ones add g_k * move_k >= 0.  A step whose demand exceeds the
    headroom ceil - f0 is rejected whatever the bound there, so the search
    skips it.  The first step tried is the largest power of two whose
    demand is at most twice the headroom (a 2x margin for roundoff), the
    last is 2^-(_MAX_HALVINGS - 1) as without the skip, and a pixel with
    non-positive or non-finite headroom starts at step 1.  Every skipped
    step is one the search would reject, so it accepts the same steps.
    From init_all's state, where about half the concentrations sit
    at BETA_FLOOR and the gradient is near 1e12, the first pass skips 46
    halvings for every pixel of the README quick-start scene at 2 000 px.
    """
    cur = np.array(betas)
    n = cur.shape[1]
    ceil = yss / (2.0 * sigma2) - log_gamma(float(cur.shape[0]))
    last = 0.5 ** (_MAX_HALVINGS - 1)
    f0, pieces = _beta_point(c, g, cur, sigma2)
    for _ in range(passes):
        grad = _beta_gradient(c, g, cur, sigma2, pieces)
        room = ceil - f0
        demand = _ARMIJO_C1 * (np.maximum(grad, 0.0) ** 2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            skip = np.ceil(np.log2(demand / (2.0 * room)))
        # headroom <= 0 or non-finite leaves no finite skip: start at step 1
        skip[~np.isfinite(skip)] = 0.0
        step = 0.5 ** np.clip(skip, 0.0, _MAX_HALVINGS - 1)
        todo = np.arange(n)
        while todo.size:
            cand = np.maximum(cur[:, todo] + step[todo] * grad[:, todo], BETA_FLOOR)
            move = cand - cur[:, todo]
            f, cand_pieces = _beta_point(c[:, todo], g, cand, sigma2)
            ok = f - f0[todo] >= _ARMIJO_C1 * (grad[:, todo] * move).sum(axis=0)
            hit = todo[ok]
            cur[:, hit] = cand[:, ok]
            f0[hit] = f[ok]
            for kept, tried in zip(pieces, cand_pieces):
                kept[..., hit] = tried[..., ok]
            todo = todo[~ok]
            step[todo] *= 0.5
            todo = todo[step[todo] >= last]
    return cur


def update_beta(
    y: np.ndarray,
    b: np.ndarray,
    betas: np.ndarray,
    sigma2: float,
    passes: int = 10,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Improve all per-pixel Dirichlet concentrations for a fixed model.

    Pixels are independent, so the work is split into contiguous column
    chunks; with a fixed worker count the result is deterministic because
    every chunk computes the same floating-point sequence regardless of
    scheduling.  Worker count defaults to the MSSMF_THREADS environment
    variable (1 if unset).
    """
    y = np.asarray(y, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    c = b.T @ y
    g = b.T @ b
    yss = (y * y).sum(axis=0)
    if workers is None:
        workers = thread_count()
    n = betas.shape[1]
    if workers <= 1 or n < 2 * workers:
        return _beta_ascent_chunk(c, g, betas, yss, sigma2, passes)
    bounds = np.linspace(0, n, workers + 1).astype(int)
    chunks = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    out = np.empty_like(betas)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        jobs = [
            (lo, hi, pool.submit(
                _beta_ascent_chunk, c[:, lo:hi], g, betas[:, lo:hi], yss[lo:hi], sigma2, passes
            ))
            for lo, hi in chunks
        ]
        for lo, hi, job in jobs:
            out[:, lo:hi] = job.result()
    return out


def thread_count() -> int:
    """Worker count from MSSMF_THREADS; malformed or missing values mean 1."""
    raw = os.environ.get("MSSMF_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _reduced_factor(gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factor a symmetric PSD matrix as gram = L'L with L of full row rank.

    Returns (L, pinv(L')), both r x k, keeping the eigenvalues above
    roundoff (k * eps times the largest).  An eigen-decomposition rather
    than Cholesky, because these grams can be singular: a mixer's
    U = P'P has rank at most K_1 however wide the layer.  pinv(L') gram = L,
    which the mixer sweep uses.
    """
    lam, vec = np.linalg.eigh(gram)
    keep = lam > lam[-1] * gram.shape[0] * np.finfo(np.float64).eps
    root = np.sqrt(lam[keep])
    return root[:, None] * vec[:, keep].T, vec[:, keep].T / root[:, None]


def update_factor(
    y: np.ndarray, stack: FactorStack, betas: np.ndarray, which: int
) -> FactorStack:
    """Exact block update of a single factor for fixed concentrations.

    which = 0 updates the core basis A, which = l for l >= 1 updates mixing
    layer S = S_l.  With P the product of the factors before the block, W
    the product of those after it, Pbar the summed Dirichlet second moment
    and M the posterior means, the block's part of the bound is, up to
    scale, minus

        basis:  tr(A R A') - 2 <A, C>,      C = Y M' W'
        mixer:  tr(S' U S R) - 2 <S, C>,    C = P' Y M' W',  U = P'P

    with R = W Pbar W'.  A basis column or mixer column j with r_jj = 0 (a
    component no later layer uses) does not enter the objective and is left
    as it is; for the basis this also removes the only directions a >= 0
    along which the objective is flat, which would let an NNLS solve drift
    without bound on roundoff.  The basis rows are independent: row i solves
    min a'Ra - 2 c_i'a over a >= 0, one nonnegative least-squares solve of
    ||L a - pinv(L') c_i||^2 with R = L'L.  A mixer makes one sweep over its
    columns, each solved exactly with the others fixed: column j minimizes
    r_jj ||P s||^2 - 2 s'd_j over the simplex, d_j = c_j - U(S r_j - s_j r_jj).
    With U = L'L that is r_jj ||L s - t_j||^2 plus a constant, where
    t_j = pinv(L') d_j / r_jj = (pinv(L') c_j - L S r_j) / r_jj + L s_j, a
    simplex least-squares problem.  Every solve lowers the block's
    objective; if roundoff makes it rise anyway, the block keeps its old
    value, so the bound never drops.
    """
    y = np.asarray(y, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    mean, pbar = _moment_sums(betas)
    ym = y @ mean.T
    mats = [stack.basis, *stack.mixers]
    if not 0 <= which < len(mats):
        raise ValidationError(f"no factor block {which} in a depth-{len(mats)} stack")
    w = _suffix_products(mats)[which + 1]
    r = w @ pbar @ w.T
    old = mats[which]
    if which == 0:
        cmat = ym @ w.T
        used = np.flatnonzero(np.diag(r) > 0.0)
        low, low_pinv = _reduced_factor(r[np.ix_(used, used)])
        new = np.array(old)
        for i, target in enumerate(cmat[:, used] @ low_pinv.T):
            new[i, used], _ = nnls(low, target)

        def objective(a):
            return np.sum((a @ r) * a) - 2.0 * np.sum(a * cmat)

    else:
        prefix = stack.basis
        for s in stack.mixers[: which - 1]:
            prefix = prefix @ s
        gram_u = prefix.T @ prefix
        cmat = prefix.T @ ym @ w.T
        low, low_pinv = _reduced_factor(gram_u)
        new = np.array(old)
        low_s = low @ new
        low_c = low_pinv @ cmat
        for j in np.flatnonzero(np.diag(r) > 0.0):
            target = (low_c[:, j] - low_s @ r[:, j]) / r[j, j] + low_s[:, j]
            new[:, j] = _simplex_lsq(target[:, None], low)[:, 0]
            low_s[:, j] = low @ new[:, j]

        def objective(s):
            return np.sum((gram_u @ s @ r) * s) - 2.0 * np.sum(s * cmat)

    if objective(new) > objective(old):
        return stack
    mats[which] = new
    return stack.replace(basis=mats[0], mixers=mats[1:])


def update_sigma2(
    y: np.ndarray, b: np.ndarray, betas: np.ndarray, floor: float = 1e-12
) -> float:
    """Closed-form noise-variance update: mean expected squared error,
    floored away from zero."""
    y = np.asarray(y, dtype=np.float64)
    m, n = y.shape
    return max(_resid_sum(y, np.asarray(b, dtype=np.float64), np.asarray(betas)) / (m * n), floor)


def fit(pixels, stack: FactorStack, betas, config: FitConfig = FitConfig()) -> FitResult:
    """Run the full coordinate-ascent loop from an initial model state.

    Per outer iteration the update order is: concentrations, core basis,
    each mixing layer in order, then the noise variance.  The traced bound
    is evaluated after the four blocks and is non-decreasing.
    """
    if not isinstance(betas, DirichletParam):
        betas = DirichletParam(betas)
    px, betas = _check_state(pixels, stack, betas)
    y = px.data
    workers = thread_count()
    elbo_hist: List[float] = []
    sigma2_hist: List[float] = []
    ms_hist: List[float] = []
    stop_reason = "max_iters"
    prev = None
    for _ in range(config.max_outer_iters):
        t0 = time.perf_counter()
        b = compose_expanded(stack).data
        betas = update_beta(
            y, b, betas, stack.noise_var,
            passes=config.beta_steps_per_outer, workers=workers,
        )
        for block in range(stack.depth):
            stack = update_factor(y, stack, betas, block)
        b = compose_expanded(stack).data
        stack = stack.replace(
            noise_var=update_sigma2(y, b, betas, floor=config.sigma2_floor)
        )
        cur = elbo_terms(y, b, betas, stack.noise_var)
        ms_hist.append((time.perf_counter() - t0) * 1e3)
        elbo_hist.append(cur)
        sigma2_hist.append(stack.noise_var)
        if not np.isfinite(cur):
            stop_reason = "non_finite"
            break
        if prev is not None:
            rel = (cur - prev) / (1.0 + abs(prev))
            if rel < -_BOUND_DROP_TOL:
                stop_reason = "bound_decreased"
                break
            if rel < config.rel_elbo_tol:
                stop_reason = "converged"
                break
        prev = cur
    trace = FitTrace(
        elbo=np.asarray(elbo_hist),
        sigma2=np.asarray(sigma2_hist),
        millis=np.asarray(ms_hist),
        stop_reason=stop_reason,
    )
    return FitResult(stack=stack, posterior=DirichletParam(betas), trace=trace)
