"""Variational maximum-likelihood fitting of the multilayer factorization.

The per-pixel abundance posterior is approximated by an independent
Dirichlet for every pixel.  Coordinate ascent on the evidence lower bound
alternates three steps per outer iteration: the Dirichlet concentrations
(projected gradient ascent with a per-pixel Armijo line search,
:func:`_beta_ascent_chunk`), one exact sweep over the factors
(:func:`_update_factors`), and the noise variance (closed form).  Every
block is accepted only if the bound does not decrease, so the traced
objective is non-decreasing by construction.

The bound's only data term is each pixel's expected squared reconstruction
error E||y_n - B z_n||^2 under its Dirichlet.  One kernel,
:func:`_expected_resid`, forms it (less ||y_n||^2) from c = B'Y and
G = B'B; the concentration line search, the noise update and the bound all
read it, so every one of them sees the same number.  :func:`fit` forms
||Y||^2 once per fit and (c, G) once per iteration; one residual evaluation
feeds the noise formula :func:`_noise_var`, the bound formula
:func:`_bound`, each defined once, and the next iteration's concentration
passes, which start from it instead of evaluating that point again.  fit
carries one state, a tuple of the concentrations and their record; the
passes update it in place and the bound sums its entropy, so a fit
evaluates every point once.  The factor sweep takes only the statistics
Y M' and Pbar, which fit forms once per iteration.  The passes run per
block of at most 1 024 pixels, and above one block on a thread per usable
core (see :func:`fit`); :func:`update_beta` runs the same blocks.

Inputs follow four rules: one conversion (``model._floats``), one range
test (``model._prep_arg``), one matrix rule (``model._matrix``) and one
data prologue, :func:`_data_terms` (shapes, checked c and G, ||Y||^2),
which :func:`fit`, :func:`update_beta` and ``init_all`` each run once; a
noise variance is checked by ``model._checked_noise_var``.  In
the line search each point is checked by its ``dirichlet_entropy`` call
before the residual divides by the totals; the gradient reads them unchecked.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np
from scipy.optimize import nnls
from scipy.special import gammaln

from .model import (
    NOISE_VAR_FLOOR,
    FactorStack,
    ValidationError,
    _checked_count,
    _checked_noise_var,
    _floats,
    _prep_arg,
    _scalar,
    _suffix_products,
    as_pixel_matrix,
    compose_expanded,
)
from .simplex import (
    BETA_FLOOR,
    DirichletParam,
    _simplex_lsq,
    _trigamma,
    dirichlet_entropy,
)

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
# relative bound change below which fit reports a decrease, not roundoff
_BOUND_DROP_TOL = 1e-10
# widest pixel block of the concentration passes
_BLOCK_PIXELS = 1024


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the outer coordinate-ascent loop.

    rel_elbo_tol stops the loop once the relative bound improvement
    (F_t - F_{t-1}) / (1 + |F_{t-1}|) falls strictly below it, so the
    default of zero runs max_outer_iters iterations unless the bound
    drops.

    Every outer iteration makes beta_steps_per_outer concentration ascent
    passes, a constant rather than a setting.  The factor blocks take no
    budget: the basis is solved exactly and each mixer makes one exact
    column sweep per iteration (see :func:`_update_factors`).
    """

    beta_steps_per_outer: ClassVar[int] = 10
    max_outer_iters: int = 100
    rel_elbo_tol: float = 0.0

    def __post_init__(self):
        iters = _checked_count(self.max_outer_iters, "max_outer_iters", 1)
        object.__setattr__(self, "max_outer_iters", iters)
        tol = _scalar(self.rel_elbo_tol, "rel_elbo_tol")
        object.__setattr__(self, "rel_elbo_tol", float(_prep_arg(tol, "rel_elbo_tol", 0.0)))


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


def _bound(rsum, ent, sigma2: float, m: int, k: int, n: int) -> float:
    """The bound per pixel from the summed expected squared error rsum and
    the summed entropy ent, for n pixels, m bands and k endmembers."""
    const = n * (-0.5 * m * np.log(2.0 * np.pi * sigma2) + gammaln(k))
    return float((const - rsum / (2.0 * sigma2) + ent) / n)


def _products(y: np.ndarray, b: np.ndarray, name: str) -> Tuple[np.ndarray, np.ndarray]:
    """(c, G) = (B'Y, B'B), checked finite.  A NaN or an infinity in B
    makes diag(G) non-finite, and one in pixel n of Y then makes column n
    of c non-finite, so the products check both inputs and themselves."""
    # a product of an infinity warns, on small arrays, before the check
    with np.errstate(over="ignore", invalid="ignore"):
        c = b.T @ y
        g = b.T @ b
    _prep_arg(g, f"{name}'s endmembers", None)
    _prep_arg(c, f"{name}'s data", None)
    return c, g


def _data_terms(
    y: np.ndarray, b: np.ndarray, betas: np.ndarray, name: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The solver's one data prologue, on float64 arrays: (c, G, each
    pixel's ||y_n||^2, ||Y||^2).  ValidationError naming the shapes unless
    Y (bands x N) and B (bands x K, K >= 1) are 2-D with equal bands and
    the concentrations are K x N; then c and G are formed and checked by
    :func:`_products`, and ||Y||^2, which finite data can overflow, is
    checked too."""
    if y.ndim != 2 or b.ndim != 2 or b.shape[0] != y.shape[0] or b.shape[1] < 1:
        raise ValidationError(
            f"endmembers {b.shape} and data {y.shape} must be 2-D with equal bands"
            " and at least one endmember"
        )
    if betas.shape != (b.shape[1], y.shape[1]):
        raise ValidationError(
            f"concentrations {betas.shape} do not match (K, N) = {(b.shape[1], y.shape[1])}"
        )
    c, g = _products(y, b, name)
    with np.errstate(over="ignore"):
        sq = y * y
    yy = np.sum(sq)
    if not yy < np.inf:
        raise ValidationError(f"{name}'s data: squared norm overflows")
    return c, g, sq.sum(axis=0), yy


def _expected_resid(
    c: np.ndarray, g: np.ndarray, betas: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Per-pixel E||y_n - B z_n||^2 - ||y_n||^2 for z_n ~ Dirichlet(betas),
    from c = B^T Y and g = B^T B: tr(G E[z z^T]) - 2 c . betas / total.

    The only code that forms the expected residual.  Also returns the
    pieces :func:`_beta_gradient` reuses at the same point: (total, denom,
    g @ betas, tr(G E[z z^T]), c . betas), one column per pixel, with
    total = sum(betas) and denom = total * (total + 1).
    """
    total = betas.sum(axis=0)
    denom = total * (total + 1.0)
    gb = g @ betas
    tr_gp = (np.diag(g) @ betas + (betas * gb).sum(axis=0)) / denom
    cb = (c * betas).sum(axis=0)
    return -2.0 * cb / total + tr_gp, (total, denom, gb, tr_gp, cb)


def _point_value(resid: np.ndarray, ent: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-pixel bound, up to beta-independent constants, from the
    :func:`_expected_resid` term and the entropy at one point."""
    return -resid / (2.0 * sigma2) + ent


def _beta_point(
    c: np.ndarray, g: np.ndarray, betas: np.ndarray, sigma2: float
) -> Tuple[np.ndarray, ...]:
    """Evaluate one point: the record (per-pixel bound, entropy, then the
    kernel's gradient pieces total, denom, gb, tr_gp, cb) at betas, one
    column per pixel.  The entropy comes first: it checks betas (finite and
    positive) before the residual divides by their totals."""
    ent = dirichlet_entropy(betas)
    resid, pieces = _expected_resid(c, g, betas)
    return (_point_value(resid, ent, sigma2), ent, *pieces)


def _beta_gradient(
    c: np.ndarray,
    g: np.ndarray,
    betas: np.ndarray,
    sigma2: float,
    point: Tuple[np.ndarray, ...],
) -> np.ndarray:
    """d(per-pixel bound)/d(betas) from the record :func:`_beta_point`
    returned at the same betas.  That call's entropy has checked betas and
    their totals, so trigamma runs without its input check."""
    total, denom, gb, tr_gp, cb = point[2:]
    k = betas.shape[0]
    d_resid = -2.0 * (c - cb / total) / total
    d_resid += (np.diag(g)[:, None] + 2.0 * gb - (2.0 * total + 1.0) * tr_gp) / denom
    d_ent = (total - k) * _trigamma(total) - (betas - 1.0) * _trigamma(betas)
    return -d_resid / (2.0 * sigma2) + d_ent


def _armijo_trial(
    c: np.ndarray,
    g: np.ndarray,
    cur: np.ndarray,
    step: np.ndarray,
    grad: np.ndarray,
    f0: np.ndarray,
    sigma2: float,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Try one clamped step per pixel from cur, whose bound is f0.  Returns
    which pixels pass the Armijo test and the state tried: the candidates
    and their :func:`_beta_point` record."""
    cand = np.maximum(cur + step * grad, BETA_FLOOR)
    point = _beta_point(c, g, cand, sigma2)
    ok = point[0] - f0 >= _ARMIJO_C1 * (grad * (cand - cur)).sum(axis=0)
    return ok, (cand, *point)


def _beta_ascent_chunk(
    c: np.ndarray,
    g: np.ndarray,
    yss: np.ndarray,
    sigma2: float,
    passes: int,
    state: Tuple[np.ndarray, ...],
) -> None:
    """Run `passes` clamped gradient-ascent steps on a block of pixels,
    updating state in place.

    state is the concentrations followed by their :func:`_beta_point`
    record, (betas, value, ent, total, denom, gb, tr_gp, cb), which
    :func:`fit` forms from the residual its bound already computes.  Each
    pass takes one Armijo-backtracked step per pixel; a pixel whose search
    fails keeps its current state, so the per-pixel bound never decreases.
    The arrays are the caller's, written in place: every pixel holds the
    candidate its search last accepted and that candidate's record, so the
    next pass starts from it, the caller's bound reads the entropy, and no
    point is evaluated twice.  The entropy of a gathered pixel has the bits
    a whole-array evaluation gives it (see :func:`dirichlet_entropy`), so
    the record's entropy is the entropy of the concentrations.

    A pass tries its first step for every pixel on the whole arrays and
    copies the state tried into state under the acceptance mask.  Only the
    pixels whose first step failed are gathered, by index, for the halving
    retries.  A retry round of one pixel forms `g @ betas` as a
    matrix-vector product, whose bits differ from that column of a
    multi-column product.  A gather of two or more columns matches the
    whole array column for column, except where the whole product rounds
    its last few columns in a tail kernel.  So trying several halvings of
    the retried pixels in one call changes the output bits.
    :func:`_ascend_blocks` calls this once per pixel block, so above 1 024
    pixels its products and gathers round by the block's width, not by
    that of all the pixels.

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
    From init_all's state, where many concentrations sit at BETA_FLOOR and
    the gradient is huge, the first pass skips most of the halvings.
    """
    betas, f0 = state[:2]
    ceil = yss / (2.0 * sigma2) - gammaln(betas.shape[0])
    last = 0.5 ** (_MAX_HALVINGS - 1)
    for _ in range(passes):
        grad = _beta_gradient(c, g, betas, sigma2, state[1:])
        room = ceil - f0
        demand = _ARMIJO_C1 * (np.maximum(grad, 0.0) ** 2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            skip = np.ceil(np.log2(demand / (2.0 * room)))
        # headroom <= 0 or non-finite leaves no finite skip: start at step 1
        skip[~np.isfinite(skip)] = 0.0
        step = 0.5 ** np.clip(skip, 0.0, _MAX_HALVINGS - 1)
        ok, tried = _armijo_trial(c, g, betas, step, grad, f0, sigma2)
        for kept, new in zip(state, tried):
            np.copyto(kept, new, where=ok)
        todo = np.flatnonzero(~ok)
        while True:
            step[todo] *= 0.5
            todo = todo[step[todo] >= last]
            if not todo.size:
                break
            ok, tried = _armijo_trial(
                c[:, todo], g, betas[:, todo], step[todo], grad[:, todo], f0[todo], sigma2
            )
            hit = todo[ok]
            for kept, new in zip(state, tried):
                kept[..., hit] = new[..., ok]
            todo = todo[~ok]


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ascend_blocks(
    threads: int,
    c: np.ndarray,
    g: np.ndarray,
    yss: np.ndarray,
    sigma2: float,
    passes: int,
    state: Tuple[np.ndarray, ...],
) -> None:
    """:func:`_beta_ascent_chunk` on ceil(N / _BLOCK_PIXELS) contiguous
    pixel blocks of near-equal width (one when N is 0), a split that depends
    on N alone, each on its columns of every array of state, which it
    updates in place.  The blocks split into at most `threads` contiguous
    groups of near-equal block count; the calling thread runs the first
    group and a pool opened for the call one thread per further group.  A
    block reads and writes only its own columns, so its bits do not depend
    on the thread that runs it, and a block's exception is raised here.
    The calling thread works rather than waits: what a pool thread
    allocates stays in its own malloc arena, resident on top of the
    caller's memory, so one pool thread fewer keeps the peak resident size
    lower."""

    def run(group: List[Tuple[int, int]]) -> None:
        for lo, hi in group:
            _beta_ascent_chunk(
                c[:, lo:hi], g, yss[lo:hi], sigma2, passes, tuple(p[..., lo:hi] for p in state)
            )

    n = state[0].shape[1]
    nblocks = max(-(-n // _BLOCK_PIXELS), 1)
    blocks = [(i * n // nblocks, (i + 1) * n // nblocks) for i in range(nblocks)]
    count = min(threads, len(blocks))
    cuts = [i * len(blocks) // count for i in range(count + 1)]
    groups = [blocks[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    if count == 1:
        run(blocks)
        return
    with ThreadPoolExecutor(max_workers=count - 1) as pool:
        rest = pool.map(run, groups[1:])
        run(groups[0])
        # consuming the results raises a pool block's exception here
        list(rest)


def update_beta(
    y: np.ndarray,
    b: np.ndarray,
    betas: np.ndarray,
    sigma2: float,
    passes: int,
    workers: int = 1,
) -> np.ndarray:
    """Improve all per-pixel Dirichlet concentrations for a fixed model.

    Runs :func:`fit`'s pixel blocks on :func:`fit`'s state, a copy of betas
    and its :func:`_beta_point` record, and returns the copy; the blocks run
    on at most `workers` threads, and the result does not depend on
    `workers`.  The argument remains only for the benchmark's two-worker
    timing probe; :func:`fit` picks its own threads.  sigma2 is checked as
    a FactorStack's noise variance is (finite, at least NOISE_VAR_FLOOR).
    """
    passes = _checked_count(passes, "passes", 0)
    workers = _checked_count(workers, "workers", 1)
    sigma2 = _checked_noise_var(sigma2, "update_beta's noise variance")
    y = _floats(y, "update_beta's data")
    b = _floats(b, "update_beta's endmembers")
    betas = _floats(betas, "update_beta's concentrations")
    c, g, yss, _ = _data_terms(y, b, betas, "update_beta")
    # _floats hands back the caller's own float64 array
    betas = np.array(betas)
    _ascend_blocks(workers, c, g, yss, sigma2, passes, (betas, *_beta_point(c, g, betas, sigma2)))
    return betas


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


def _factor_statistics(y: np.ndarray, betas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The E-step statistics the factor blocks read: (Y M', Pbar), with M
    the posterior means and Pbar = sum_n E[z_n z_n^T]."""
    total = betas.sum(axis=0)
    weighted = betas / (total * (total + 1.0))
    pbar = np.diag(weighted.sum(axis=1)) + betas @ weighted.T
    return y @ (betas / total).T, pbar


def _block_terms(
    prefix: Optional[np.ndarray], w: np.ndarray, ym: np.ndarray, pbar: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(U, R, C) of the block quadratic tr(X'UXR) - 2<X, C> for the factor
    between the products prefix (P) and w (W), from the statistics
    ym = Y M' and pbar = Pbar.  prefix is None for the basis, whose U is the
    identity; U is then returned as None."""
    r = w @ pbar @ w.T
    if prefix is None:
        return None, r, ym @ w.T
    return prefix.T @ prefix, r, prefix.T @ ym @ w.T


def _quadratic_part(x: np.ndarray, u: Optional[np.ndarray], r: np.ndarray) -> np.ndarray:
    """U X R, with U = None standing for the identity."""
    return (x if u is None else u @ x) @ r


def _nnls_rows(r: np.ndarray, c: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Solve min a'Ra - 2 c_i'a over a >= 0 for every row c_i of c,
    warm-started from the support P of each row of old (the certificate
    argument is in :func:`_update_factors`).  Row i's system is R_PP on P
    and the identity off it, so one batched call solves every row.
    """
    low, low_pinv = _reduced_factor(r)
    new = np.zeros_like(c)
    ok = np.zeros(c.shape[0], dtype=bool)
    if low.shape[0] == r.shape[0]:
        # R is positive definite, and so is every R_PP (eigenvalue interlacing)
        pos = old > 0.0
        systems = np.where(pos[:, :, None] & pos[:, None, :], r, np.eye(r.shape[0]))
        new = np.linalg.solve(systems, np.where(pos, c, 0.0)[:, :, None])[:, :, 0]
        ok = np.all(np.where(pos, new > 0.0, new @ r - c >= 0.0), axis=1)
    bad = np.flatnonzero(~ok)
    for i, target in zip(bad, c[bad] @ low_pinv.T):
        new[i], _ = nnls(low, target)
    return new


def _factor_block(
    old: np.ndarray, u: Optional[np.ndarray], r: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Minimize the block quadratic tr(X'UXR) - 2<X, C> from old: the
    basis (u None) over X >= 0, a mixer by one sweep over its simplex
    columns.  Returns the new factor, or old itself (the same object) if
    roundoff made the objective rise.  See :func:`_update_factors`."""
    used = np.flatnonzero(np.diag(r) > 0.0)
    new = np.array(old)
    if u is None:
        new[:, used] = _nnls_rows(r[np.ix_(used, used)], c[:, used], old[:, used])
    else:
        low, low_pinv = _reduced_factor(u)
        low_s = low @ new
        low_c = low_pinv @ c
        for j in used:
            target = (low_c[:, j] - low_s @ r[:, j]) / r[j, j] + low_s[:, j]
            new[:, j] = _simplex_lsq(target[:, None], low)[:, 0]
            low_s[:, j] = low @ new[:, j]

    def objective(x):
        return np.sum(_quadratic_part(x, u, r) * x) - 2.0 * np.sum(x * c)

    if objective(new) > objective(old):
        return old
    return new


def _update_factors(stack: FactorStack, ym: np.ndarray, pbar: np.ndarray) -> FactorStack:
    """One exact sweep over the core basis and then each mixing layer, for
    fixed concentrations.

    The sweep reads the data and concentrations only as the statistics
    ym = Y M' and pbar = Pbar (M the posterior means, Pbar the summed
    Dirichlet second moment), which :func:`fit` forms once per iteration.
    With P the product of the factors before a block and W the product of
    those after it, the block's part of the bound is, up to scale, minus
    one quadratic in its factor X:

        tr(X' U X R) - 2 <X, C>,   U = P'P,  R = W Pbar W',  C = P' Y M' W'

    For the basis P, and so U, is the identity.  :func:`_block_terms` forms
    (U, R, C) and :func:`_factor_block` minimizes the quadratic.  The sweep
    forms every W once, from the incoming factors, and carries P from block
    to block: when a block is solved, the factors after it are still the
    incoming ones and those before it are already new.

    A basis column or mixer column j with r_jj = 0 (a component no later
    layer uses) does not enter the objective and is left as it is; for the
    basis this also removes the only directions a >= 0 along which the
    objective is flat, which would let an NNLS solve drift without bound on
    roundoff.

    With U = I the basis rows are independent: row i solves the convex QP
    min a'Ra - 2 c_i'a over a >= 0.  Each row is warm-started from its
    previous support P: one batched call solves R_PP a_P = c_P for every
    row.  A row keeps that point only if its KKT certificate holds, a_P > 0
    and (R a - c)_j >= 0 off P; a KKT point of a convex QP is its minimum,
    and the only one when R is positive definite, the one case in which the
    solve is tried.  A row whose certificate fails goes to NNLS,
    ||L a - pinv(L') c_i||^2 with R = L'L, so every row still gets its exact
    optimum.  Most rows keep their support from one iteration to the next,
    so most row solves skip NNLS; how many fall back depends on the scene
    and, through roundoff, on BLAS's thread count.

    A mixer makes one sweep over its columns, each solved exactly with the
    others fixed: column j minimizes r_jj ||P s||^2 - 2 s'd_j over the
    simplex, d_j = c_j - U(S r_j - s_j r_jj).  With U = L'L that is
    r_jj ||L s - t_j||^2 plus a constant, where
    t_j = pinv(L') d_j / r_jj = (pinv(L') c_j - L S r_j) / r_jj + L s_j, a
    simplex least-squares problem.  Every solve lowers its block's
    objective; if roundoff makes one rise anyway, the block keeps its old
    value, so the bound never drops.  The sweep returns one new, validated
    stack.
    """
    mats = [stack.basis, *stack.mixers]
    tail = _suffix_products(mats)
    prefix = None
    for i, w in enumerate(tail[1:]):
        mats[i] = _factor_block(mats[i], *_block_terms(prefix, w, ym, pbar))
        prefix = mats[i] if prefix is None else prefix @ mats[i]
    return stack.replace(basis=mats[0], mixers=mats[1:])


def _noise_var_at(y: np.ndarray, b: np.ndarray, betas: np.ndarray) -> float:
    """The closed-form noise variance (:func:`_noise_var`) at (B, betas),
    from ||Y||^2 plus the summed per-pixel :func:`_expected_resid`, as
    :func:`fit`'s noise update forms it, through :func:`_data_terms`.  The
    caller (``init_all``) floors the concentrations at ``BETA_FLOOR``."""
    c, g, _, yy = _data_terms(y, b, betas, "init_all")
    return _noise_var(yy + _expected_resid(c, g, betas)[0].sum(), y.size)


def _noise_var(rsum, size: int) -> float:
    """The mean expected squared error, rsum over the size of Y, floored at
    ``NOISE_VAR_FLOOR``, the least noise variance a FactorStack accepts."""
    return max(float(rsum) / size, NOISE_VAR_FLOOR)


def fit(pixels, stack: FactorStack, betas, config: FitConfig = FitConfig()) -> FitResult:
    """Run the full coordinate-ascent loop from an initial model state.

    Per outer iteration the update order is: concentrations, core basis,
    each mixing layer in order, then the noise variance.  The traced bound
    is evaluated after the four blocks and is non-decreasing.  The (c, G)
    formed after the factor sweep serve the noise update, the bound and the
    next iteration's concentration passes: the noise update leaves B as it
    is.  fit holds one state, one tuple of a writable copy of the starting
    concentrations and their :func:`_beta_point` record, which the passes
    update in place.  The record is evaluated once, before the loop; after
    each sweep the residual that the noise update and the bound read, with
    the state's entropy, forms the next record.  The concentrations are
    frozen once, into the returned DirichletParam.  Each iteration's time
    covers all of its work, the first's that start evaluation too.

    The concentration passes run on ceil(N / 1024) contiguous pixel blocks
    of near-equal width, a split that depends on N alone, in one group per
    usable core (``os.sched_getaffinity``), at most one per block: the
    calling thread runs the first group and a pool opened for each
    iteration's passes the others (:func:`_ascend_blocks`).  Everything
    else runs in the calling thread on whole arrays.  A block's bits do not
    depend on the thread that runs it, so fit's do not depend on the core
    count; N <= 1024 is one block and starts no thread.  No thread outlives
    the passes, and a block's exception is raised here.
    """
    if not isinstance(betas, DirichletParam):
        betas = DirichletParam(betas)
    y = as_pixel_matrix(pixels).data
    betas = np.array(betas.concentration)
    c, g, yss, yy = _data_terms(y, compose_expanded(stack), betas, "fit")
    # the factor sweep does not read the noise variance, so the loop carries
    # it as a float and the stack takes it once, after the loop
    sigma2 = stack.noise_var
    elbo_hist: List[float] = []
    sigma2_hist: List[float] = []
    ms_hist: List[float] = []
    stop_reason = "max_iters"
    prev = None
    threads = _usable_cores()
    t0 = time.perf_counter()
    state = (betas, *_beta_point(c, g, betas, sigma2))
    for _ in range(config.max_outer_iters):
        _ascend_blocks(threads, c, g, yss, sigma2, config.beta_steps_per_outer, state)
        ent = state[2]
        stack = _update_factors(stack, *_factor_statistics(y, betas))
        c, g = _products(y, compose_expanded(stack), "fit")
        # the concentration passes checked every point they accepted
        resid, pieces = _expected_resid(c, g, betas)
        rsum = yy + resid.sum()
        sigma2 = _checked_noise_var(_noise_var(rsum, y.size))
        cur = _bound(rsum, ent.sum(), sigma2, y.shape[0], *betas.shape)
        state = (betas, _point_value(resid, ent, sigma2), ent, *pieces)
        ms_hist.append((time.perf_counter() - t0) * 1e3)
        elbo_hist.append(cur)
        sigma2_hist.append(sigma2)
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
        t0 = time.perf_counter()
    stack = stack.replace(noise_var=sigma2)
    trace = FitTrace(
        elbo=np.asarray(elbo_hist),
        sigma2=np.asarray(sigma2_hist),
        millis=np.asarray(ms_hist),
        stop_reason=stop_reason,
    )
    return FitResult(stack=stack, posterior=DirichletParam(betas), trace=trace)
