"""Variational maximum-likelihood fitting of the multilayer factorization.

Coordinate ascent on the evidence lower bound (D2), with an independent
Dirichlet posterior per pixel.  Each outer iteration runs the
concentration passes (:func:`_beta_ascent_chunk`, (D12)), one exact sweep
over the factors (:func:`_update_factors`, (D17)) and the closed-form
noise variance (D15).  DERIVATION.md holds the equations; the docstrings
here give each function's contract and cite them by number.

:func:`_expected_resid` is the one kernel for the data term (D5): the
passes, the noise update and the bound all read it.  :func:`fit` forms
||Y||^2 once per fit and (c, G) = (B'Y, B'B) once per iteration, and it
carries one state, the concentrations and their :func:`_beta_point`
record, which the passes update in place, so a fit evaluates every point
once.  The passes run per block of at most 1 024 pixels, on a thread per
usable core above one block (:func:`_ascend_blocks`).

Inputs are checked where they enter: :func:`_data_terms` is the one data
prologue, which :func:`fit`, :func:`update_beta` and ``init_all`` each run
once, and a noise variance goes through ``model._checked_noise_var``.  In
the line search each point is checked by its ``dirichlet_entropy`` call
before the residual divides by its totals.
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
    _column_solver,
    _pixel_blocks,
    _reduced_factor,
    _trigamma,
    dirichlet_entropy,
)

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
# relative bound change below which fit reports a decrease, not roundoff
_BOUND_DROP_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the outer coordinate-ascent loop.

    rel_elbo_tol is the stop rule's tolerance (D29), finite and at least 0;
    the default of zero runs max_outer_iters iterations unless the bound
    drops.  Every outer iteration makes beta_steps_per_outer concentration
    passes, a constant rather than a setting.  The factor blocks take no
    budget: each is solved exactly (see :func:`_update_factors`).
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
    time in milliseconds, and why the loop stopped (D29): "max_iters",
    "converged", "bound_decreased" or "non_finite"."""

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
    """The bound (D2) per pixel, from the summed expected squared error
    rsum and the summed entropy ent, for n pixels, m bands and k endmembers."""
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
    the concentrations are K x N; then c and G are checked by
    :func:`_products`, t (t + 1) of the largest total, the divisor of the
    residual (D5), and ||Y||^2, which finite data can overflow, too."""
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
        top = float(betas.sum(axis=0).max(initial=0.0))
        sq = y * y
    _prep_arg(top * (top + 1.0), f"{name}'s concentration totals t (t + 1)", None)
    yy = np.sum(sq)
    if not yy < np.inf:
        raise ValidationError(f"{name}'s data: squared norm overflows")
    return c, g, sq.sum(axis=0), yy


def _expected_resid(
    c: np.ndarray, g: np.ndarray, betas: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Per-pixel r_n = E||y_n - B z_n||^2 - ||y_n||^2 for
    z_n ~ Dirichlet(betas), from c = B'Y and g = B'B, in the form (D5), not
    the stable form (D6); the only code that forms it.

    Also returns the pieces :func:`_beta_gradient` reuses at the same point,
    one column per pixel: (total, denom, g @ betas, tr(G E[z z']), c . betas),
    with denom = total * (total + 1), inf without a warning past 1.3e154.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = betas.sum(axis=0)
        denom = total * (total + 1.0)
        gb = g @ betas
        tr_gp = (np.diag(g) @ betas + (betas * gb).sum(axis=0)) / denom
        cb = (c * betas).sum(axis=0)
    return -2.0 * cb / total + tr_gp, (total, denom, gb, tr_gp, cb)


def _point_value(resid: np.ndarray, ent: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-pixel value f_n (D3), up to beta-independent constants, from the
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
    """d f_n / d betas by the per-pixel rows a, b, h of (D10)-(D11), from the
    record :func:`_beta_point` returned at the same betas, whose entropy has
    checked betas and their totals: trigamma runs without its input check."""
    total, denom, gb, tr_gp, cb = point[2:]
    a, b = 1.0 / (sigma2 * total), -1.0 / (sigma2 * denom)
    h = (total - betas.shape[0]) * _trigamma(total) - a * cb / total
    grad = (1.0 - betas) * _trigamma(betas)
    grad += h - 0.5 * b * (2.0 * total + 1.0) * tr_gp
    grad += c * a
    grad += b * (gb + 0.5 * np.diag(g)[:, None])
    return grad


def _armijo_trial(
    c: np.ndarray,
    g: np.ndarray,
    cur: np.ndarray,
    step: np.ndarray,
    grad: np.ndarray,
    f0: np.ndarray,
    sigma2: float,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Try one clamped step (D12) per pixel from cur, whose value is f0.
    Returns which pixels pass the Armijo test (none whose t (t + 1) is inf)
    and the state tried: the candidates and their :func:`_beta_point` record."""
    cand = np.maximum(cur + step * grad, BETA_FLOOR)
    point = _beta_point(c, g, cand, sigma2)
    ok = point[0] - f0 >= _ARMIJO_C1 * (grad * (cand - cur)).sum(axis=0)
    ok &= point[3] < np.inf
    return ok, (cand, *point)


def _beta_ascent_chunk(
    c: np.ndarray,
    g: np.ndarray,
    yss: np.ndarray,
    sigma2: float,
    passes: int,
    state: Tuple[np.ndarray, ...],
) -> None:
    """Run `passes` Armijo passes (D12) on a block of pixels, updating state
    in place.

    state is the concentrations followed by their :func:`_beta_point` record,
    (betas, value, ent, total, denom, gb, tr_gp, cb), the caller's arrays.
    After each pass every pixel holds the candidate its search last accepted
    and that candidate's record, so the next pass starts from it, no point is
    evaluated twice and no pixel's value drops.  yss holds each pixel's
    ||y||^2, for the headroom ceiling (D13): each search starts at the first
    step it could accept (D14), so it accepts what a search from step 1
    accepts.

    A pass tries its first step for every pixel on the whole arrays and
    copies the state tried in under the acceptance mask.  Only the pixels
    that step fails for are gathered, by index, for the halving retries.  A
    gathered entropy has the whole array's bits (D7), but a one-column retry
    forms `g @ betas` as a matrix-vector product, which rounds differently,
    so trying several halvings in one call would change the output bits.
    Above 1 024 pixels :func:`_ascend_blocks` calls this per pixel block, so
    the products round by the block's width.
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
    """:func:`_beta_ascent_chunk` on the pixel blocks of
    ``simplex._pixel_blocks``, each on its columns of every array of state,
    which it updates in place.  The blocks split into at most `threads`
    contiguous groups of near-equal block count; the calling thread runs the
    first group and a pool opened for the call one thread per further
    group.  A block reads and writes only its own columns, so its bits do
    not depend on the thread that runs it, and a block's exception is
    raised here.
    The calling thread works rather than waits: what a pool thread
    allocates stays in its own malloc arena, resident on top of the
    caller's memory, so one pool thread fewer keeps the peak resident size
    lower."""

    def run(group: List[Tuple[int, int]]) -> None:
        for lo, hi in group:
            _beta_ascent_chunk(
                c[:, lo:hi], g, yss[lo:hi], sigma2, passes, tuple(p[..., lo:hi] for p in state)
            )

    blocks = _pixel_blocks(state[0].shape[1])
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


def _factor_statistics(y: np.ndarray, betas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The E-step statistics (D16) the factor blocks read: (Y M', Pbar)."""
    total = betas.sum(axis=0)
    weighted = betas / (total * (total + 1.0))
    pbar = np.diag(weighted.sum(axis=1)) + betas @ weighted.T
    return y @ (betas / total).T, pbar


def _block_terms(
    prefix: Optional[np.ndarray], w: np.ndarray, ym: np.ndarray, pbar: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(U, R, C) of the block quadratic (D17) for the factor between the
    products prefix (P) and w (W), from ym = Y M' and pbar = Pbar.  prefix is
    None for the basis, whose U is the identity; U is then returned as None."""
    r = w @ pbar @ w.T
    if prefix is None:
        return None, r, ym @ w.T
    return prefix.T @ prefix, r, prefix.T @ ym @ w.T


def _quadratic_part(x: np.ndarray, u: Optional[np.ndarray], r: np.ndarray) -> np.ndarray:
    """U X R, with U = None standing for the identity."""
    return (x if u is None else u @ x) @ r


def _nnls_rows(r: np.ndarray, c: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The minimizer of a'Ra - 2 c_i'a over a >= 0 for every row c_i of c.
    One batched solve puts each row on the support of its row of old; a row
    keeps that point where its KKT certificate (D21) holds, and the rest go
    to NNLS on the reduced factor (D22)."""
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
    old: np.ndarray, u: Optional[np.ndarray], r: np.ndarray, c: np.ndarray, layer: int
) -> np.ndarray:
    """Minimize the block quadratic (D17) from old: the basis (u None) row by
    row over X >= 0 (:func:`_nnls_rows`), a mixer by one sweep over its
    simplex columns at their targets t_j (D23), one NNLS solve (D24) each.
    layer is the factor's place in the stack (0 the basis); a mixer's
    refusal names it.  A column with r_jj = 0 keeps its value (D19).
    Returns the new factor, or old itself (the same object) if roundoff
    made the objective rise (D20)."""
    used = np.flatnonzero(np.diag(r) > 0.0)
    new = np.array(old)
    if u is None:
        new[:, used] = _nnls_rows(r[np.ix_(used, used)], c[:, used], old[:, used])
    else:
        low, low_pinv = _reduced_factor(u)
        low_s = low @ new
        low_c = low_pinv @ c
        solve = _column_solver(low, "fit's mixer sweep", f"the targets of mixing layer {layer}")
        for j in used:
            target = (low_c[:, j] - low_s @ r[:, j]) / r[j, j] + low_s[:, j]
            new[:, j] = solve(target, j)
            low_s[:, j] = low @ new[:, j]

    def objective(x):
        return np.sum(_quadratic_part(x, u, r) * x) - 2.0 * np.sum(x * c)

    if objective(new) > objective(old):
        return old
    return new


def _update_factors(stack: FactorStack, ym: np.ndarray, pbar: np.ndarray) -> FactorStack:
    """One exact sweep over the core basis and then each mixing layer, for
    fixed concentrations.

    The sweep reads the data and the concentrations only as the statistics
    ym = Y M' and pbar = Pbar (D16), which :func:`fit` forms once per
    iteration.  :func:`_factor_block` minimizes each block's quadratic (D17);
    the sweep forms every W once, from the incoming factors, and carries P
    from block to block (D18).  No block keeps a value that raises its
    objective (D20), so the bound never drops.  Most basis rows keep their
    support from one iteration to the next and skip NNLS; how many fall back
    depends on the scene and, through roundoff, on BLAS's thread count.
    Returns one new, validated stack.
    """
    mats = [stack.basis, *stack.mixers]
    tail = _suffix_products(mats)
    prefix = None
    for i, w in enumerate(tail[1:]):
        mats[i] = _factor_block(mats[i], *_block_terms(prefix, w, ym, pbar), i)
        prefix = mats[i] if prefix is None else prefix @ mats[i]
    return stack.replace(basis=mats[0], mixers=mats[1:])


def _noise_var_at(y: np.ndarray, b: np.ndarray, betas: np.ndarray) -> float:
    """The closed-form noise variance (D15) at (B, betas), from ||Y||^2 plus
    the summed :func:`_expected_resid`, as :func:`fit`'s noise update forms
    it, through :func:`_data_terms`.  The caller (``init_all``) floors the
    concentrations at ``BETA_FLOOR``."""
    c, g, _, yy = _data_terms(y, b, betas, "init_all")
    return _noise_var(yy + _expected_resid(c, g, betas)[0].sum(), y.size)


def _noise_var(rsum, size: int) -> float:
    """The noise variance (D15): rsum over the size of Y, floored at
    ``NOISE_VAR_FLOOR``, the least noise variance a FactorStack accepts."""
    return max(float(rsum) / size, NOISE_VAR_FLOOR)


def fit(pixels, stack: FactorStack, betas, config: FitConfig = FitConfig()) -> FitResult:
    """Run the full coordinate-ascent loop from an initial model state.

    Per outer iteration the update order is: concentrations, core basis,
    each mixing layer in order, then the noise variance.  The traced bound
    (D2) is evaluated after the four blocks, is non-decreasing, and ends the
    loop by the stop rule (D29).  The (c, G) formed after the factor sweep
    serve the noise update, the bound and the next iteration's passes.  fit
    holds one state, a writable copy of the starting concentrations and
    their :func:`_beta_point` record: the record is evaluated once, before
    the loop, and then formed from the residual the bound reads.  The
    concentrations are frozen once, into the returned DirichletParam.  Each
    iteration's time covers all of its work, the first's that start
    evaluation too.

    The passes run on ceil(N / 1024) contiguous pixel blocks of near-equal
    width, a split that depends on N alone, in one group per usable core
    (``os.sched_getaffinity``), at most one per block (:func:`_ascend_blocks`).
    Everything else runs in the calling thread on whole arrays.  A block's
    bits do not depend on the thread that runs it, so fit's do not depend on
    the core count; N <= 1024 is one block and starts no thread.  No thread
    outlives the passes, and a block's exception is raised here.
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
            if config.rel_elbo_tol > 0.0 and rel < config.rel_elbo_tol:
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
