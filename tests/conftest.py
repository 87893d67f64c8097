"""Shared helpers: tiny random model instances and brute-force oracles."""

import itertools
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.special as sp

from mssmf import (
    FactorStack, FitConfig, assemble_ground_truth, builtin_bases, fit, gen_dataset, init_all,
    solver,
)
from mssmf.model import _as_rng, _floats, _prep_arg, _scalar
from mssmf.simplex import dirichlet_entropy, sample_dirichlet


# JSON files the package's reader must refuse with a ValidationError: bytes
# that are not UTF-8, and nesting deeper than the parser's recursion limit
UNREADABLE_JSON = {"not_utf8": b"\xff{}", "too_deep": b"[" * 100_000}


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_instance(rng, max_dim=8, depth=2, sigma2=None):
    """A small random (Y, stack, betas) triple with feasible factors."""
    m = int(rng.integers(3, max_dim + 1))
    sizes = np.sort(rng.integers(2, max_dim + 1, size=depth))
    sizes[0] = min(sizes[0], m)
    n = int(rng.integers(max(2, sizes[-1]), max_dim + 3))
    basis = rng.uniform(0.05, 1.0, (m, int(sizes[0])))
    mixers = tuple(
        sample_dirichlet(np.ones(int(a)), int(b), rng)
        for a, b in zip(sizes, sizes[1:])
    )
    if sigma2 is None:
        sigma2 = float(rng.uniform(0.02, 0.5))
    stack = FactorStack(basis=basis, mixers=mixers, noise_var=sigma2)
    betas = rng.uniform(0.3, 4.0, (int(sizes[-1]), n))
    y = rng.normal(0.4, 0.3, (m, n))
    return y, stack, betas


def expanded_of(stack):
    out = stack.basis
    for s in stack.mixers:
        out = out @ s
    return out


def elbo_terms(y, b, betas, sigma2):
    """The bound per pixel as fit traces it, from the kernels fit runs: the
    noise variance checked finite and positive, the arrays converted,
    the data prologue (the shapes, c = B'Y and G = B'B, ||Y||^2), the summed
    expected residual and entropy, and the bound formula.  Unlike
    update_beta's, the noise variance has no floor, and the factors need
    not be feasible, so probes may evaluate sigma2 +- h or step off the
    simplex."""
    sigma2 = _scalar(sigma2, "elbo_terms' noise variance")
    _prep_arg(sigma2, "elbo_terms' noise variance")
    y, b, betas = (_floats(x, "elbo_terms' arrays") for x in (y, b, betas))
    c, g, _, yy = solver._data_terms(y, b, betas, "elbo_terms")
    # the entropy checks the concentrations before the residual divides by
    # their totals
    ent = dirichlet_entropy(betas).sum()
    rsum = yy + solver._expected_resid(c, g, betas)[0].sum()
    return solver._bound(rsum, ent, sigma2, y.shape[0], *betas.shape)


def beta_gradient_reference(c, g, betas, sigma2):
    """The concentration gradient -(D10) / (2 sigma2) + (D11) as the two
    equations read, term by term, with scipy's trigamma: an oracle for the
    per-pixel coefficient rows that solver._beta_gradient sums."""
    t = betas.sum(axis=0)
    denom = t * (t + 1.0)
    gb = g @ betas
    tau = (np.diag(g) @ betas + (betas * gb).sum(axis=0)) / denom
    d_resid = -2.0 * (c - (c * betas).sum(axis=0) / t) / t
    d_resid += (np.diag(g)[:, None] + 2.0 * gb - (2.0 * t + 1.0) * tau) / denom
    d_ent = (t - betas.shape[0]) * sp.polygamma(1, t) - (betas - 1.0) * sp.polygamma(1, betas)
    return -d_resid / (2.0 * sigma2) + d_ent


def block_terms(mats, which, y, betas):
    """(U, R, C) of factor `which` of mats = [basis, *mixers] as the sweep
    forms them, with the statistics, the prefix and the suffix products
    computed for this block alone."""
    ym, pbar = solver._factor_statistics(y, betas)
    prefix = None
    for mat in mats[:which]:
        prefix = mat if prefix is None else prefix @ mat
    w = solver._suffix_products(mats)[which + 1]
    return solver._block_terms(prefix, w, ym, pbar)


def dirichlet_second_moment(beta):
    """Second-moment matrix E[z z^T] of a Dirichlet(beta), beta 1-D: the
    oracle for one pixel's term of Pbar.  Checks beta finite and positive
    by the package's range test."""
    b = _prep_arg(beta, "dirichlet_second_moment")
    t = b.sum()
    return (np.diag(b) + np.outer(b, b)) / (t * (t + 1.0))


def elbo_monte_carlo(y, b, betas, sigma2, draws, rng):
    """Independent ELBO estimate: sample the variational Dirichlets and
    average log joint minus log variational density, all via scipy.

    Returns (estimate, standard_error).
    """
    m, n = y.shape
    k = betas.shape[0]
    log_norm_const = -0.5 * m * np.log(2.0 * np.pi * sigma2)
    per_pixel_mean = np.empty(n)
    per_pixel_var = np.empty(n)
    for j in range(n):
        beta = betas[:, j]
        z = rng.standard_gamma(beta[:, None], size=(k, draws))
        z /= z.sum(axis=0)
        resid = y[:, [j]] - b @ z
        log_joint = (
            log_norm_const
            - (resid * resid).sum(axis=0) / (2.0 * sigma2)
            + sp.gammaln(k)
        )
        log_q = (
            ((beta[:, None] - 1.0) * np.log(z)).sum(axis=0)
            - sp.gammaln(beta).sum()
            + sp.gammaln(beta.sum())
        )
        vals = log_joint - log_q
        per_pixel_mean[j] = vals.mean()
        per_pixel_var[j] = vals.var(ddof=1) / draws
    return per_pixel_mean.mean(), np.sqrt(per_pixel_var.sum()) / n


def central_diff(f, x, h=1e-5):
    """Dense central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        plus = x.copy()
        plus[idx] += h
        minus = x.copy()
        minus[idx] -= h
        g[idx] = (f(plus) - f(minus)) / (2.0 * h)
    return g


def simplex_lsq_bruteforce(y, a):
    """Exact simplex-constrained least squares by scanning every support.

    For each nonempty support S the equality-constrained minimizer of
    ||y - A_S w||^2 subject to sum(w) = 1 solves the KKT system
    [[2 A_S'A_S, 1], [1', 0]] [w; mu] = [2 A_S'y; 1], which is consistent
    but singular when A_S is rank deficient; lstsq returns one of its
    solutions.  Some optimum of the full problem has a smallest support,
    on which that minimizer is unique and nonnegative, so the nonnegative
    candidate with the smallest objective is optimal.

    Returns (s, objective).
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    k = a.shape[1]
    best = None
    best_obj = np.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            sub = a[:, s]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * sub.T @ sub
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.append(2.0 * sub.T @ y, 1.0)
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            if np.any(sol[:size] < -1e-12):
                continue
            w = np.zeros(k)
            w[s] = np.maximum(sol[:size], 0.0)
            w /= w.sum()
            obj = float(np.sum((y - a @ w) ** 2))
            if obj < best_obj:
                best_obj = obj
                best = w
    return best, best_obj


def nnls_quadratic_bruteforce(q, c):
    """Exact min a'Qa - 2c'a over a >= 0 (Q symmetric PSD) by scanning
    every support, the empty one included.

    For each support S the minimizer with a zero off S solves
    Q_SS a_S = c_S; lstsq returns one solution when Q_SS is singular.
    Some optimum has a smallest support, and on it Q_SS is nonsingular: the
    objective is flat along a null vector of Q_SS there, and moving along
    it or against it would zero a coordinate.  So the nonnegative candidate
    with the smallest objective is optimal.

    Returns (a, objective).
    """
    q = np.asarray(q, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    k = c.size
    best = np.zeros(k)
    best_obj = 0.0
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            sol = np.linalg.lstsq(q[np.ix_(s, s)], c[s], rcond=None)[0]
            if np.any(sol < -1e-12):
                continue
            a = np.zeros(k)
            a[s] = np.maximum(sol, 0.0)
            obj = float(a @ q @ a - 2.0 * c @ a)
            if obj < best_obj:
                best_obj = obj
                best = a
    return best, best_obj


def assignment_bruteforce(cost):
    """Exhaustive minimum-cost assignment; ties go to the smallest perm."""
    k = cost.shape[0]
    best_perm = None
    best_total = np.inf
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total < best_total - 1e-15:
            best_total = total
            best_perm = perm
    return np.asarray(best_perm), best_total


def reference_vca_picks(frame, k, rng):
    """VCA's pick indices in a frame from ``initialization._vca_frame``, by
    the pseudo-inverse formulation of Nascimento & Bioucas-Dias: each pick
    projects a random direction off the column space of the picks so far
    (e_k before the first) as w - A pinv(A) w.  k is at least 2 and passes
    the diversity check."""
    y, centered, u, _ = frame
    x = u[:, : k - 1].T @ centered
    c = np.sqrt((x * x).sum(axis=0).max())
    work = np.vstack([x, np.full((1, y.shape[1]), c)])
    indices = np.zeros(k, dtype=int)
    a = np.zeros((k, k))
    a[-1, 0] = 1.0
    for i in range(k):
        w = rng.standard_normal(k)
        f = w - a @ (np.linalg.pinv(a) @ w)
        f /= np.linalg.norm(f)
        indices[i] = int(np.argmax(np.abs(f @ work)))
        a[:, i] = work[:, indices[i]]
    return indices


def squared_distances(estimate, truth):
    """cost[i, j] = ||estimate[:, i] - truth[:, j]||^2, column pair by
    column pair: the assignment cost aligned_mse minimizes."""
    return np.array([[np.sum((e - t) ** 2) for t in truth.T] for e in estimate.T])


def reference_gen_dataset(endmembers, n_pixels, snr_db, seed):
    """(pixels, abundances, sigma2) of gen_dataset formed the direct way:
    the same draws in the same order, with the noisy pixels as the one
    expression clean + noise."""
    a = np.asarray(endmembers, dtype=np.float64)
    m = a.shape[0]
    rng = _as_rng(seed)
    z = sample_dirichlet(np.ones(a.shape[1]), n_pixels, rng)
    clean = a @ z
    if np.isinf(snr_db):
        return clean, z, 0.0
    sigma2 = float(np.sum(clean * clean) / (10.0 ** (snr_db / 10.0) * m * n_pixels))
    return clean + rng.normal(0.0, np.sqrt(sigma2), size=clean.shape), z, sigma2


def traced_peak_arrays(call, shape):
    """The most memory call() holds at once beyond what was allocated
    before it, in float64 arrays of the given shape.  tracemalloc's peak:
    numpy reports its array buffers to it, and it counts every thread."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8.0 * np.prod(shape))
    finally:
        tracemalloc.stop()


def memory_guard_calls():
    """The calls the working-set guards trace, on the benchmark's `wide`
    scene shape (198 bands x 2 000 pixels at 20 dB, dims 6,18,30):
    (bands x pixels shape, {name: zero-argument call}).  gen_dataset makes
    the scene, init_all starts from it and fit runs 3 iterations from
    that start.  Run "fit" on one usable core, since each further block
    thread holds its block's temporaries at the same time; "fit on two
    threads" patches the usable cores to two itself, so the scene's two
    pixel blocks run on two threads wherever it is called."""
    truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
    pixels = gen_dataset(truth, 2000, 20.0, seed=8).pixels
    init = init_all(pixels, (6, 18, 30), seed=9)
    config = FitConfig(max_outer_iters=3, rel_elbo_tol=0.0)

    def fit_two_threads():
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            return fit(pixels, init.stack, init.posterior, config)

    return pixels.data.shape, {
        "gen_dataset": lambda: gen_dataset(truth, 2000, 20.0, seed=8),
        "init_all": lambda: init_all(pixels, (6, 18, 30), seed=9),
        "fit": lambda: fit(pixels, init.stack, init.posterior, config),
        "fit on two threads": fit_two_threads,
    }
