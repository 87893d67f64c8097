import os
import re
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from mssmf import (
    DirichletParam,
    FactorStack,
    FitConfig,
    ValidationError,
    assemble_ground_truth,
    builtin_bases,
    compose_expanded,
    fit,
    gen_dataset,
    init_all,
    update_beta,
)
from mssmf import model, simplex, solver
from mssmf.model import NOISE_VAR_FLOOR
from mssmf.simplex import (
    BETA_FLOOR,
    dirichlet_entropy,
    sample_dirichlet,
)

from conftest import (
    beta_gradient_reference,
    block_terms,
    central_diff,
    dirichlet_second_moment,
    elbo_monte_carlo,
    elbo_terms,
    expanded_of,
    nnls_quadratic_bruteforce,
    random_instance,
    simplex_lsq_bruteforce,
)


def reference_beta_ascent(c, g, betas, sigma2, passes):
    """The concentration line search without the carried values: it
    evaluates the bound again at the current point at the start of every
    pass.  Returns the iterate and how many candidate columns the searches
    tried."""
    cur = np.array(betas)
    n = cur.shape[1]
    tried = 0
    for _ in range(passes):
        point = solver._beta_point(c, g, cur, sigma2)
        f0 = point[0]
        grad = solver._beta_gradient(c, g, cur, sigma2, point)
        step = np.ones(n)
        todo = np.arange(n)
        for _ in range(solver._MAX_HALVINGS):
            if todo.size == 0:
                break
            tried += todo.size
            cand = np.maximum(cur[:, todo] + step[todo] * grad[:, todo], BETA_FLOOR)
            move = cand - cur[:, todo]
            gain = solver._beta_point(c[:, todo], g, cand, sigma2)[0] - f0[todo]
            ok = gain >= solver._ARMIJO_C1 * (grad[:, todo] * move).sum(axis=0)
            cur[:, todo[ok]] = cand[:, ok]
            todo = todo[~ok]
            step[todo] *= 0.5
    return cur, tried


def quick_start_init():
    """README quick-start scene (500 px, dims 6,18,30): its pixels and
    init_all's state."""
    truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
    bundle = gen_dataset(truth, n_pixels=500, snr_db=20.0, seed=8)
    return bundle.pixels, init_all(bundle.pixels, layer_sizes=(6, 18, 30), seed=9)


def retrying_state(case):
    """(y, stack, betas) at init_all's state of the README quick-start
    scene or of a deep 30 dB scene (200 px, dims 3,5,8,12,18,30): states at
    which the concentration searches retry."""
    if case == "quick_start":
        pixels, init = quick_start_init()
    else:
        truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
        pixels = gen_dataset(truth, n_pixels=200, snr_db=30.0, seed=8).pixels
        init = init_all(pixels, layer_sizes=(3, 5, 8, 12, 18, 30), seed=9)
    return pixels.data, init.stack, init.posterior.concentration


def wide_instance(n=2100):
    """(y, stack, betas): a random 20-band mixture of n pixels, by default
    three of fit's pixel blocks, under dims 4,6."""
    rng = np.random.default_rng(27)
    stack = FactorStack(
        basis=rng.uniform(0.05, 1.0, (20, 4)),
        mixers=(sample_dirichlet(np.ones(4), 6, rng),),
        noise_var=0.01,
    )
    z = sample_dirichlet(np.ones(6), n, rng)
    y = compose_expanded(stack) @ z + rng.normal(0.0, 0.05, (20, n))
    return y, stack, rng.uniform(0.3, 4.0, (6, n))


WIDE_CONFIG = FitConfig(max_outer_iters=3, rel_elbo_tol=0.0)


def fit_state(res):
    """Every array a fit returns, for comparison bit for bit."""
    return (
        res.posterior.concentration, res.stack.basis, *res.stack.mixers,
        res.trace.elbo, res.trace.sigma2,
    )


def assert_same_fit(got, want):
    for a, b in zip(fit_state(got), fit_state(want), strict=True):
        np.testing.assert_array_equal(a, b)


def usable_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture(scope="module", params=[0, 3], ids=["init", "fit3"])
def quick_start_state(request):
    """README quick-start scene at init_all's state and after 3 fit
    iterations, as (y, b, betas, sigma2, stack).  At init most pixels need
    many step halvings; after 3 iterations every pixel takes its first
    step."""
    pixels, init = quick_start_init()
    stack, betas = init.stack, init.posterior.concentration
    if request.param:
        res = fit(
            pixels, stack, init.posterior,
            FitConfig(max_outer_iters=request.param, rel_elbo_tol=0.0),
        )
        stack, betas = res.stack, res.posterior.concentration
    b = compose_expanded(stack)
    return pixels.data, b, betas, stack.noise_var, stack


class TestElbo:
    def test_matches_monte_carlo(self, rng):
        # the bound (D2) of the model (D1), with the residual (D5) and the
        # entropy (D7) in closed form, against draws from the posteriors
        for _ in range(3):
            y, stack, betas = random_instance(rng, max_dim=5)
            b = expanded_of(stack)
            closed = elbo_terms(y, b, betas, stack.noise_var)
            est, se = elbo_monte_carlo(y, b, betas, stack.noise_var, 200_000, rng)
            assert abs(closed - est) < 3.0 * se

    def test_entropy_term_included(self, rng):
        # scaling all concentrations far up shrinks the posterior entropy,
        # so the bound must change even though the mean stays fixed
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        low = elbo_terms(y, b, betas * 50.0, stack.noise_var)
        base = elbo_terms(y, b, betas, stack.noise_var)
        assert low != pytest.approx(base, rel=1e-3)


def factor_gradients(y, stack, betas):
    """Gradient of the averaged bound with respect to the basis and every
    mixing layer, -(U X R - C) / (sigma2 N) from each block's quadratic as
    the sweep forms it."""
    mats = [stack.basis, *stack.mixers]
    scale = stack.noise_var * y.shape[1]
    grads = []
    for which, x in enumerate(mats):
        u, r, c = block_terms(mats, which, y, betas)
        grads.append(-(solver._quadratic_part(x, u, r) - c) / scale)
    return grads


class TestGradients:
    def test_factor_gradients_match_finite_differences(self, rng):
        # each block's quadratic (D17) gives the bound's factor gradient
        for _ in range(6):
            y, stack, betas = random_instance(rng, max_dim=6, depth=2)
            sigma2 = stack.noise_var
            g_basis, g_mixer = factor_gradients(y, stack, betas)

            def f_basis(a):
                mats = [a, *stack.mixers]
                out = mats[0]
                for mat in mats[1:]:
                    out = out @ mat
                return elbo_terms(y, out, betas, sigma2)

            fd = central_diff(f_basis, np.array(stack.basis))
            assert np.abs(g_basis - fd).max() < 1e-6 * (1 + np.abs(fd).max())

            def f_mixer(s):
                out = stack.basis @ s
                return elbo_terms(y, out, betas, sigma2)

            fd_mix = central_diff(f_mixer, np.array(stack.mixers[0]))
            assert np.abs(g_mixer - fd_mix).max() < 1e-6 * (1 + np.abs(fd_mix).max())

    def test_beta_gradient_matches_finite_differences(self, rng):
        # the concentration gradient, (D10) and (D11), of the per-pixel
        # value (D3) the line search runs, summed over pixels and averaged
        # as the bound is
        for _ in range(6):
            y, stack, betas = random_instance(rng, max_dim=6)
            b = expanded_of(stack)
            c, g, sigma2, n = b.T @ y, b.T @ b, stack.noise_var, y.shape[1]
            point = solver._beta_point(c, g, betas, sigma2)
            got = solver._beta_gradient(c, g, betas, sigma2, point) / n
            fd = central_diff(
                lambda t: solver._beta_point(c, g, t, sigma2)[0].sum() / n, betas
            )
            assert np.abs(got - fd).max() < 1e-6 * (1 + np.abs(fd).max())

    @pytest.mark.parametrize("passes", [0, 10])
    @pytest.mark.parametrize("case", ["quick_start", "deep"])
    def test_beta_gradient_matches_unfolded_reference(self, case, passes):
        # the per-pixel coefficient rows a, b, h of (D10)-(D11) against the
        # two equations term by term, at init_all's state and after ten
        # passes; the terms cancel, so the bound is relative to each
        # column's largest entry (measured worst: 6.1e-16 at init, 1.2e-12
        # after fifty passes on the deep scene)
        y, stack, betas = retrying_state(case)
        b = compose_expanded(stack)
        c, g, sigma2 = b.T @ y, b.T @ b, stack.noise_var
        if passes:
            betas = update_beta(y, b, betas, sigma2, passes)
        got = solver._beta_gradient(c, g, betas, sigma2, solver._beta_point(c, g, betas, sigma2))
        want = beta_gradient_reference(c, g, betas, sigma2)
        rel = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
        assert rel.max() < 1e-11

    def test_deep_stack_gradients(self, rng):
        # (D17) for the second of three mixers
        y, stack, betas = random_instance(rng, max_dim=5, depth=3)
        grads = factor_gradients(y, stack, betas)
        assert [x.shape for x in grads] == [stack.basis.shape, *(s.shape for s in stack.mixers)]
        mixers = [np.array(s) for s in stack.mixers]

        def f_second(s):
            out = stack.basis @ mixers[0] @ s
            return elbo_terms(y, out, betas, stack.noise_var)

        fd = central_diff(f_second, mixers[1])
        assert np.abs(grads[2] - fd).max() < 1e-6 * (1 + np.abs(fd).max())


class TestSigma2:
    def test_closed_form_is_stationary(self, rng):
        # the noise variance (D15) is a stationary point of the bound
        for _ in range(5):
            y, stack, betas = random_instance(rng)
            b = expanded_of(stack)
            s2 = solver._noise_var_at(y, b, betas)
            h = 1e-6 * s2
            deriv = (
                elbo_terms(y, b, betas, s2 + h) - elbo_terms(y, b, betas, s2 - h)
            ) / (2.0 * h)
            assert abs(deriv) < 1e-6

    def test_floor_applies(self):
        # exact data and near-certain concentrations: the expected residual
        # is below the floor FactorStack enforces, so the update (D15) clamps
        # to it and fit can keep going from there
        r = np.random.default_rng(0)
        basis = r.uniform(0.1, 1.0, (8, 2))
        mixer = sample_dirichlet(np.ones(2), 4, r)
        z = sample_dirichlet(np.ones(4), 40, r)
        y = basis @ mixer @ z
        betas = np.maximum(z * 1e12, BETA_FLOOR)
        assert solver._noise_var_at(y, basis @ mixer, betas) == NOISE_VAR_FLOOR
        stack = FactorStack(basis, (mixer,), NOISE_VAR_FLOOR)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=3, rel_elbo_tol=0.0))
        assert len(res.trace) >= 1
        assert np.all(res.trace.sigma2 >= NOISE_VAR_FLOOR)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 4: the expected residual cancels on exactly fitted data,"
        " so the bound drops at roundoff",
    )
    def test_exact_data_fits_to_the_last_iteration(self):
        # test_floor_applies' scene, started above the floor: the residual
        # (D5) cancels, and the fit stops with "bound_decreased" at
        # iteration 10, at sigma2 about 1e-8
        r = np.random.default_rng(0)
        basis = r.uniform(0.1, 1.0, (8, 2))
        mixer = sample_dirichlet(np.ones(2), 4, r)
        z = sample_dirichlet(np.ones(4), 40, r)
        y = basis @ mixer @ z
        stack = FactorStack(basis, (mixer,), 1e-3)
        res = fit(y, stack, np.maximum(z * 1e6, BETA_FLOOR), FitConfig(max_outer_iters=100))
        assert res.trace.stop_reason == "max_iters"

    def test_never_decreases_the_bound(self, rng):
        # (D15) maximizes the bound over the noise variance
        for _ in range(5):
            y, stack, betas = random_instance(rng)
            b = expanded_of(stack)
            before = elbo_terms(y, b, betas, stack.noise_var)
            after = elbo_terms(y, b, betas, solver._noise_var_at(y, b, betas))
            assert after >= before - 1e-10 * (1 + abs(before))


class TestBetaUpdate:
    def test_never_decreases_the_bound(self, rng):
        # an Armijo step (D12) never lowers a pixel's value
        for _ in range(5):
            y, stack, betas = random_instance(rng)
            b = expanded_of(stack)
            before = elbo_terms(y, b, betas, stack.noise_var)
            new = update_beta(y, b, betas, stack.noise_var, passes=3)
            after = elbo_terms(y, b, new, stack.noise_var)
            assert after >= before - 1e-10 * (1 + abs(before))

    def test_respects_floor(self, rng):
        y, stack, betas = random_instance(rng)
        new = update_beta(y, expanded_of(stack), betas, stack.noise_var, passes=5)
        assert np.all(new >= BETA_FLOOR)

    def test_threaded_matches_serial_layout(self):
        # workers caps the threads and nothing else: the pixel blocks and
        # their start are fit's, so every count gives the same bits, on the
        # README quick-start state (one block) and on 2 100 px (three)
        for y, stack, betas in (retrying_state("quick_start"), wide_instance()):
            b = expanded_of(stack)
            runs = [
                update_beta(y, b, betas, stack.noise_var, passes=10, workers=workers)
                for workers in (1, 2, 3)
            ]
            for got in runs[1:]:
                np.testing.assert_array_equal(got, runs[0])

    def test_leaves_the_callers_concentrations_alone(self):
        # the blocks write one copy of betas: a caller's writable float64
        # array, which the entry's conversion hands back as it is, keeps its
        # values, on one pixel block and on three run by two threads
        for y, stack, betas in (retrying_state("quick_start"), wide_instance()):
            betas = np.array(betas)
            before = betas.copy()
            got = update_beta(
                y, expanded_of(stack), betas, stack.noise_var, passes=10, workers=2
            )
            np.testing.assert_array_equal(betas, before)
            assert not np.array_equal(got, before)

    def test_no_pixels(self, rng):
        # zero pixels are one empty block, as the parent's single chunk was
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        got = update_beta(y[:, :0], b, betas[:, :0], stack.noise_var, passes=3, workers=2)
        assert got.shape == (betas.shape[0], 0)

    def test_improves_toward_posterior(self, rng):
        # with lots of passes the update should help substantially from a
        # deliberately bad start
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        bad = np.full_like(betas, 9.0)
        before = elbo_terms(y, b, bad, stack.noise_var)
        new = bad
        for _ in range(10):
            new = update_beta(y, b, new, stack.noise_var, passes=10)
        after = elbo_terms(y, b, new, stack.noise_var)
        assert after > before + 0.1

    def test_carried_values_match_reference_loop(self, quick_start_state):
        # the line search (D12) against a reference that evaluates afresh
        y, b, betas, sigma2, _ = quick_start_state
        c, g = b.T @ y, b.T @ b
        want, _ = reference_beta_ascent(c, g, betas, sigma2, 5)
        got = update_beta(y, b, betas, sigma2, passes=5, workers=1)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        # every pixel's bound is non-decreasing pass by pass
        values = [solver._beta_point(c, g, betas, sigma2)[0]]
        for passes in range(1, 6):
            after = update_beta(y, b, betas, sigma2, passes=passes, workers=1)
            values.append(solver._beta_point(c, g, after, sigma2)[0])
        assert np.all(np.diff(values, axis=0) >= 0)

    def test_every_pass_keeps_each_pixel_bound(self, rng):
        # (D12) keeps each pixel's value (D3) pass by pass.  On these
        # instances later passes reject steps; a pass that kept a
        # stale value for a pixel whose step it accepted would let the next
        # one accept a step that lowers that pixel's bound
        for _ in range(20):
            y, stack, betas = random_instance(rng, sigma2=10.0 ** rng.uniform(-6.0, 0.0))
            b = expanded_of(stack)
            c, g, sigma2 = b.T @ y, b.T @ b, stack.noise_var
            values = np.array([
                solver._beta_point(c, g, update_beta(y, b, betas, sigma2, passes=p), sigma2)[0]
                for p in range(11)
            ])
            assert np.all(np.diff(values, axis=0) >= -1e-12 * (1.0 + np.abs(values[:-1])))

    def test_evaluates_each_point_once(self, quick_start_state, request, monkeypatch):
        y, b, betas, sigma2, _ = quick_start_state
        _, tried = reference_beta_ascent(b.T @ y, b.T @ b, betas, sigma2, 5)
        columns = []
        entropy = solver.dirichlet_entropy

        def counted(x):
            columns.append(x.shape[1])
            return entropy(x)

        monkeypatch.setattr(solver, "dirichlet_entropy", counted)
        update_beta(y, b, betas, sigma2, passes=5, workers=1)
        # the starting point once, then only the candidates the searches try
        assert columns[0] == betas.shape[1]
        if request.node.callspec.params["quick_start_state"] == 0:
            # at init the searches skip the steps the reference loop tries
            # and rejects at concentrations on the floor
            assert sum(columns) <= (betas.shape[1] + tried) / 3
        else:
            # every pixel takes its first step, so nothing is skipped
            assert sum(columns) == betas.shape[1] + tried

    def test_checks_each_array_once_per_pass(self, quick_start_state, monkeypatch):
        # every evaluated point is checked by its dirichlet_entropy call
        # (the concentrations and the result), the gradient at that point
        # reads the checked arrays without checking them again, and every
        # other array is checked once per call
        y, b, betas, sigma2, _ = quick_start_state
        entropy_calls = []
        checks = []
        entropy = solver.dirichlet_entropy
        prep = model._prep_arg

        def counted(x):
            entropy_calls.append(None)
            return entropy(x)

        def recorded(x, name, *args, **kwargs):
            frame = sys._getframe(1)
            checks.append((name, frame.f_code.co_name, frame.f_back.f_code.co_name))
            return prep(x, name, *args, **kwargs)

        monkeypatch.setattr(solver, "dirichlet_entropy", counted)
        for module in (model, simplex, solver):
            monkeypatch.setattr(module, "_prep_arg", recorded)
        update_beta(y, b, betas, sigma2, passes=5)
        names = Counter(name for name, _, _ in checks)
        assert names.pop("dirichlet_entropy", 0) == len(entropy_calls)
        assert names.pop("dirichlet_entropy (overflow)", 0) == len(entropy_calls)
        # the noise variance, G, c and t (t + 1) of the largest
        # concentration total in the prologue; the concentrations are left
        # to the entropy
        assert names == {
            "update_beta's noise variance": 1,
            "update_beta's endmembers": 1,
            "update_beta's data": 1,
            "update_beta's concentration totals t (t + 1)": 1,
        }
        assert not any("_beta_gradient" in chain for chain in checks)
        # the line search evaluates its start and at least one point per pass
        assert len(entropy_calls) >= 1 + 5

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.floats(-6.0, 0.0))
    def test_skip_premises_hold(self, seed, log_sigma2):
        # the search skips a step whose Armijo demand (D14) exceeds the
        # headroom below the ceiling (D13), yss / (2 sigma2) - log Gamma(K),
        # the entropy's maximum (D7); check that ceiling and that the skip
        # accepts what the unskipped search accepts
        rng = np.random.default_rng(seed)
        y, stack, _ = random_instance(rng, sigma2=10.0**log_sigma2)
        b = expanded_of(stack)
        k, n = b.shape[1], y.shape[1]
        sigma2 = stack.noise_var
        c, g = b.T @ y, b.T @ b
        ceil = (y * y).sum(axis=0) / (2.0 * sigma2) - gammaln(k)
        assert dirichlet_entropy(np.ones((k, 1)))[0] == pytest.approx(-gammaln(k), abs=1e-12)
        levels = rng.choice([BETA_FLOOR, 1.0, 1e3], size=(k, n), p=[0.6, 0.2, 0.2])
        start = levels * rng.uniform(1.0, 3.0, (k, n))
        got = update_beta(y, b, start, sigma2, passes=5, workers=1)
        for j in range(n):
            # one pixel at a time, so both searches hand BLAS the same
            # column subsets and only the skipped candidates differ
            want, _ = reference_beta_ascent(b.T @ y[:, [j]], g, start[:, [j]], sigma2, 5)
            alone = update_beta(y[:, [j]], b, start[:, [j]], sigma2, passes=5, workers=1)
            np.testing.assert_array_equal(alone, want)
        before = solver._beta_point(c, g, start, sigma2)[0]
        after = solver._beta_point(c, g, got, sigma2)[0]
        assert np.all(after >= before)
        for betas in (start, got, np.ones((k, n)), levels):
            value = solver._beta_point(c, g, betas, sigma2)[0]
            assert np.all(value <= ceil + 1e-9 * np.abs(ceil))


def block_problem(y, stack, betas, which):
    """Factor block `which` as min tr(X' U X R) - 2 <X, C>, built from the
    definitions: with P the product of the factors before the block (the
    identity for the basis) and W the product after it, U = P'P,
    R = W E[sum_n z_n z_n'] W' and C = P' Y E[Z]' W'.  Returns (U, R, C, P)."""
    mats = [stack.basis, *stack.mixers]
    prefix = np.eye(y.shape[0])
    for mat in mats[:which]:
        prefix = prefix @ mat
    after = np.eye(mats[which].shape[1])
    for mat in mats[which + 1:]:
        after = after @ mat
    pbar = sum(dirichlet_second_moment(col) for col in betas.T)
    mean = DirichletParam(betas).mean
    r = after @ pbar @ after.T
    c = prefix.T @ y @ mean.T @ after.T
    return prefix.T @ prefix, r, c, prefix


def block_objective(problem, x):
    u, r, c, _ = problem
    return float(np.sum((u @ x @ r) * x) - 2.0 * np.sum(x * c))


def block_update(mats, which, y, betas):
    """The per-block solver's update of factor `which` of mats."""
    return solver._factor_block(mats[which], *block_terms(mats, which, y, betas), which)


def solve_block(y, stack, betas, which):
    """The stack with factor `which` replaced by the per-block solver's
    update."""
    mats = [stack.basis, *stack.mixers]
    mats[which] = block_update(mats, which, y, betas)
    return stack.replace(basis=mats[0], mixers=mats[1:])


def structured_instance(rng, layers, zero_rows=()):
    """(y, stack, betas) with the given layer sizes; (mixer, row) pairs in
    zero_rows name mixer rows set to zero, their columns renormalized."""
    m, n = 12, 15
    mixers = [sample_dirichlet(np.ones(a), b, rng) for a, b in zip(layers, layers[1:])]
    for layer, row in zero_rows:
        mixers[layer][row] = 0.0
        mixers[layer] /= mixers[layer].sum(axis=0)
    stack = FactorStack(
        basis=rng.uniform(0.05, 1.0, (m, layers[0])), mixers=tuple(mixers), noise_var=0.1
    )
    betas = rng.uniform(0.3, 4.0, (layers[-1], n))
    y = rng.normal(0.4, 0.3, (m, n))
    return y, stack, betas


# (layer sizes, zeroed mixer rows): a prefix of rank K_1 < K_l as on the
# deep workload; an all-zero row in the first mixer, which makes the basis
# block's R singular; and an all-zero row in the second mixer, which gives
# column 2 of the first mixer r_jj = 0
EXACT_CASES = {
    "rank_deficient_prefix": ((2, 4, 6), ()),
    "zero_mixer_row": ((3, 5, 8), ((0, 1),)),
    "zero_r_jj": ((3, 5, 8), ((1, 2),)),
}


def _raw_entry_calls(y, b, betas, sigma2):
    """Each raw-array entry point with a noise-variance argument, and the
    bound oracle, which runs the same prologue, called."""
    return {
        "update_beta": lambda: update_beta(y, b, betas, sigma2, 2),
        "elbo_terms": lambda: elbo_terms(y, b, betas, sigma2),
    }


def entry_point_fit(y, stack, betas, iters):
    """fit's loop built from the raw-array entry point update_beta, the
    factor sweep on statistics formed here and init_all's noise-variance
    helper, each forming its own statistics.  Returns (stack, betas,
    bounds, noise variances); the stack keeps its initial noise variance."""
    sigma2 = stack.noise_var
    bounds, noise = [], []
    for _ in range(iters):
        b = compose_expanded(stack)
        betas = update_beta(y, b, betas, sigma2, FitConfig.beta_steps_per_outer)
        stack = solver._update_factors(stack, *solver._factor_statistics(y, betas))
        b = compose_expanded(stack)
        sigma2 = solver._noise_var_at(y, b, betas)
        bounds.append(elbo_terms(y, b, betas, sigma2))
        noise.append(sigma2)
    return stack, betas, bounds, noise


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRawEntryChecks:
    """update_beta takes raw arrays, so it checks them, as fit checks the
    statistics it forms: a bad input raises ValidationError
    before any arithmetic turns it into a warning or a silent result.  The
    bound oracle elbo_terms runs the same prologue, so a test that hands it
    a bad point fails rather than reading a meaningless bound."""

    @pytest.mark.parametrize("entry", ["update_beta", "elbo_terms"])
    @pytest.mark.parametrize("sigma2", [-1.0, 0.0, -0.0, np.nan, np.inf])
    def test_reject_bad_noise_variance(self, rng, entry, sigma2):
        y, stack, betas = random_instance(rng)
        call = _raw_entry_calls(y, expanded_of(stack), betas, sigma2)[entry]
        with pytest.raises(ValidationError, match="noise variance"):
            call()

    @pytest.mark.parametrize("entry", ["update_beta", "elbo_terms"])
    def test_compute_with_the_checked_noise_variance(self, rng, entry):
        # a numeric string passes the check and is what the entry computes with
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        want = _raw_entry_calls(y, b, betas, 0.1)[entry]()
        got = _raw_entry_calls(y, b, betas, "0.1")[entry]()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("entry", ["update_beta", "elbo_terms"])
    @pytest.mark.parametrize("sigma2", [np.array([0.1]), [0.1, 0.2], "abc"], ids=repr)
    def test_reject_non_scalar_noise_variance(self, rng, entry, sigma2):
        y, stack, betas = random_instance(rng)
        call = _raw_entry_calls(y, expanded_of(stack), betas, sigma2)[entry]
        with pytest.raises(ValidationError, match="noise variance"):
            call()

    @pytest.mark.parametrize("entry", ["fit", "update_beta", "elbo_terms"])
    def test_reject_overflowing_squared_norm(self, rng, entry):
        # finite data whose ||Y||^2 overflows, where it is formed
        y, stack, betas = random_instance(rng)
        y = y * 1e160
        b = expanded_of(stack)
        calls = _raw_entry_calls(y, b, betas, stack.noise_var)
        calls["fit"] = lambda: fit(y, stack, betas, FitConfig(max_outer_iters=2))
        with pytest.raises(ValidationError, match="data: squared norm overflows"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["fit", "update_beta", "elbo_terms"])
    @pytest.mark.parametrize("scale", [1e160, 1e307])
    def test_reject_overflowing_concentration_totals(self, rng, entry, scale):
        # the residual (D5) divides by t (t + 1), which overflows past a
        # total of about 1.3e154: such a start is refused where it enters,
        # by name and with no warning, and so is a total that overflows
        y, stack, betas = random_instance(rng)
        betas = betas * scale
        calls = _raw_entry_calls(y, expanded_of(stack), betas, stack.noise_var)
        calls["fit"] = lambda: fit(y, stack, betas, FitConfig(max_outer_iters=2))
        with pytest.raises(ValidationError, match=re.escape("concentration totals t (t + 1)")):
            calls[entry]()

    def test_accept_large_concentration_totals(self, rng):
        # totals of 1e153 are in range: fit runs from them, with no warning
        y, stack, betas = random_instance(rng)
        betas = betas / betas.sum(axis=0) * 1e153
        res = fit(y, stack, betas, FitConfig(max_outer_iters=2))
        assert np.isfinite(res.trace.elbo).all()

    def test_armijo_fails_where_the_total_overflows(self, rng):
        # a candidate whose t (t + 1) overflows fails its Armijo test,
        # quietly, even against a start value of -inf, which every finite
        # candidate value passes; G is small, so at 2.5e153 per entry
        # (total 2e154) the candidate's value and demand stay finite
        b = rng.uniform(0.0, 1e-3, (6, 8))
        y = rng.uniform(0.0, 1.0, (6, 5))
        c, g = b.T @ y, b.T @ b
        cur = np.ones(c.shape)
        for size, passes in ((1e150, True), (2.5e153, False)):
            ok, tried = solver._armijo_trial(
                c, g, cur, np.ones(5), np.full(c.shape, size), np.full(5, -np.inf), 0.1
            )
            np.testing.assert_array_equal(ok, np.full(5, passes))
            assert np.isfinite(tried[1]).all() and (tried[4] < np.inf).all() == passes

    @pytest.mark.parametrize("when", ["start", "sweep"])
    def test_fit_rejects_overflowing_endmembers(self, rng, monkeypatch, when):
        # B'B overflows at a finite basis of entries 1e200; fit checks
        # (c, G) each time it forms them, before the loop and after a sweep
        y, stack, betas = random_instance(rng)
        huge = stack.replace(basis=stack.basis * 1e200)
        if when == "start":
            stack = huge
        else:
            monkeypatch.setattr(solver, "_update_factors", lambda *args: huge)
        with pytest.raises(ValidationError, match="fit's endmembers: non-finite"):
            fit(y, stack, betas, FitConfig(max_outer_iters=3, rel_elbo_tol=0.0))

    @pytest.mark.parametrize("entry", ["update_beta", "elbo_terms"])
    @pytest.mark.parametrize("where", ["y", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reject_non_finite_data(self, rng, entry, where, bad):
        y, stack, betas = random_instance(rng)
        b = np.array(expanded_of(stack))
        if where == "y":
            y[1, 0] = bad
        else:
            b[1, 0] = bad
        calls = _raw_entry_calls(y, b, betas, stack.noise_var)
        with pytest.raises(ValidationError, match="data" if where == "y" else "endmembers"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["update_beta", "elbo_terms"])
    @pytest.mark.parametrize("column", [True, False])
    def test_reject_zero_concentrations(self, rng, entry, column):
        # a zero column would divide by its zero total in the residual
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        if column:
            betas[:, 0] = 0.0
        else:
            betas[0, 0] = 0.0
        calls = _raw_entry_calls(y, b, betas, stack.noise_var)
        with pytest.raises(ValidationError, match="finite and positive"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["update_beta", "elbo_terms"])
    @pytest.mark.parametrize(
        "case", ["bands", "concentration_rows", "concentration_columns", "concentrations_1d"]
    )
    def test_reject_mismatched_shapes(self, rng, entry, case):
        # a bad shape is named, not left to a broadcasting or matmul error
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        if case == "bands":
            y = y[:-1]
        elif case == "concentration_rows":
            betas = betas[:-1]
        elif case == "concentration_columns":
            betas = betas[:, :-1]
        else:
            betas = betas[:, 0]
        calls = _raw_entry_calls(y, b, betas, stack.noise_var)
        shapes = y.shape if case == "bands" else betas.shape
        with pytest.raises(ValidationError, match=re.escape(str(shapes))):
            calls[entry]()

    @pytest.mark.parametrize("passes", [2.5, 2.0, -1, True])
    def test_update_beta_rejects_bad_pass_counts(self, rng, passes):
        y, stack, betas = random_instance(rng)
        with pytest.raises(ValidationError, match="passes"):
            update_beta(y, expanded_of(stack), betas, stack.noise_var, passes)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, 2.0, "2", None])
    def test_update_beta_rejects_bad_worker_counts(self, rng, workers):
        y, stack, betas = random_instance(rng)
        with pytest.raises(ValidationError, match="workers"):
            update_beta(y, expanded_of(stack), betas, stack.noise_var, 2, workers=workers)

    def test_tiny_noise_variance_is_accepted(self, rng):
        # no floor: finite differences probe the bound at sigma2 +- h
        y, stack, betas = random_instance(rng)
        assert np.isfinite(elbo_terms(y, expanded_of(stack), betas, 1e-14))


class TestUpdateFactor:
    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_block_terms_match_definitions(self, rng, case):
        # (U, R, C) of (D17) from the statistics (D16), against the
        # definitions with the second-moment oracle
        layers, zero_rows = EXACT_CASES[case]
        y, stack, betas = structured_instance(rng, layers, zero_rows)
        mats = [stack.basis, *stack.mixers]
        for which in range(len(stack.mixers) + 1):
            u, r, c = block_terms(mats, which, y, betas)
            want_u, want_r, want_c, _ = block_problem(y, stack, betas, which)
            if which == 0:
                # the basis's U is the identity, passed as None
                assert u is None
                np.testing.assert_array_equal(want_u, np.eye(y.shape[0]))
            else:
                np.testing.assert_allclose(u, want_u, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(r, want_r, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(c, want_c, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_basis_matches_support_enumeration_oracle(self, rng, case):
        # every basis row's QP (D21), on the certified and the reduced NNLS
        # (D22) path, against support enumeration
        layers, zero_rows = EXACT_CASES[case]
        for _ in range(10):
            y, stack, betas = structured_instance(rng, layers, zero_rows)
            _, q, c, _ = block_problem(y, stack, betas, 0)
            if case == "zero_mixer_row":
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(q)
            got = solve_block(y, stack, betas, 0).basis
            for a, ci in zip(got, c):
                _, want = nnls_quadratic_bruteforce(q, ci)
                assert float(a @ q @ a - 2.0 * ci @ a) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_mixer_sweep_solves_its_last_column(self, rng, case):
        # the column target t_j (D23) and its simplex least squares (D24),
        # against support enumeration
        layers, zero_rows = EXACT_CASES[case]
        for _ in range(10):
            y, stack, betas = structured_instance(rng, layers, zero_rows)
            for which in range(1, len(stack.mixers) + 1):
                u, r, c, prefix = block_problem(y, stack, betas, which)
                new = solve_block(y, stack, betas, which).mixers[which - 1]
                j = new.shape[1] - 1
                rjj = r[j, j]
                d = c[:, j] - u @ (new @ r[:, j] - new[:, j] * rjj)

                def column_objective(s):
                    return float(rjj * s @ u @ s - 2.0 * s @ d)

                # d lies in range(P'), so the column problem is a simplex
                # least squares fit of P s to the target below
                target = np.linalg.lstsq(prefix.T, d / rjj, rcond=None)[0]
                s_star, _ = simplex_lsq_bruteforce(target, prefix)
                want = column_objective(s_star)
                assert column_objective(new[:, j]) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "case, which, col", [("zero_mixer_row", 0, 1), ("zero_r_jj", 1, 2)]
    )
    def test_column_outside_the_objective_is_left_alone(self, rng, case, which, col):
        # no later layer uses component `col` of block `which`, so r_jj = 0
        # and the column keeps its value (D19)
        layers, zero_rows = EXACT_CASES[case]
        y, stack, betas = structured_instance(rng, layers, zero_rows)
        _, r, _, _ = block_problem(y, stack, betas, which)
        assert r[col, col] == 0.0
        old = [stack.basis, *stack.mixers][which]
        got = solve_block(y, stack, betas, which)
        new = [got.basis, *got.mixers][which]
        np.testing.assert_array_equal(new[:, col], old[:, col])
        assert not np.array_equal(new, old)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_blocks_keep_stack_feasible_and_bound_monotone(self, seed, depth):
        # every block of an outer iteration, in fit's order: concentrations
        # (D12), basis and each mixer (D17, D20), noise variance (D15)
        rng = np.random.default_rng(seed)
        y, stack, betas = random_instance(rng, max_dim=6, depth=depth)

        def bound(stack, betas):
            return elbo_terms(y, expanded_of(stack), betas, stack.noise_var)

        def assert_no_drop(before, after):
            assert after >= before - 1e-10 * (1.0 + abs(before))

        before = bound(stack, betas)
        passes = FitConfig().beta_steps_per_outer
        betas = update_beta(y, expanded_of(stack), betas, stack.noise_var, passes=passes)
        betas = DirichletParam(betas).concentration
        after = bound(stack, betas)
        assert_no_drop(before, after)
        before = after
        for which in range(len(stack.mixers) + 1):
            new = solve_block(y, stack, betas, which)
            assert isinstance(new, FactorStack)
            assert np.all(new.basis >= 0)
            for s in new.mixers:
                assert np.all(s >= 0)
                np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-12)
            after = bound(new, betas)
            assert_no_drop(before, after)
            problem = block_problem(y, new, betas, which)
            once = block_objective(problem, [new.basis, *new.mixers][which])
            again = solve_block(y, new, betas, which)
            twice = block_objective(problem, [again.basis, *again.mixers][which])
            if which == 0:
                assert twice == pytest.approx(once, rel=1e-10, abs=1e-12)
            else:
                assert twice <= once + 1e-10 * abs(once)
            stack, before = new, after
        stack = stack.replace(noise_var=solver._noise_var_at(y, expanded_of(stack), betas))
        assert_no_drop(before, bound(stack, betas))

    @pytest.mark.parametrize("which", [0, 1])
    def test_keeps_old_block_when_objective_rises(self, rng, monkeypatch, which):
        # a solver that returns a worse point: the block must stay as it was,
        # by the keep-old guard (D20)
        y, stack, betas = random_instance(rng, depth=2)
        if which == 0:
            monkeypatch.setattr(solver, "_nnls_rows", lambda r, c, old: np.full(c.shape, 1e3))
        else:
            monkeypatch.setattr(
                solver, "_column_solver", lambda b, name, whose: lambda t, j: np.eye(b.shape[1])[0]
            )
        mats = [stack.basis, *stack.mixers]
        assert block_update(mats, which, y, betas) is mats[which]

    def test_mixer_sweep_matches_per_column_solves_at_deep_scale(self):
        # the sweep allocates one column solver per mixer; on the benchmark's
        # deep scene (200 px, 30 dB, dims 3,5,8,12,18,30) after 5 iterations,
        # it must give the bits of fresh per-column solves (D23, D24)
        truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
        pixels = gen_dataset(truth, n_pixels=200, snr_db=30.0, seed=8).pixels
        init = init_all(pixels, (3, 5, 8, 12, 18, 30), seed=9)
        config = FitConfig(max_outer_iters=5, rel_elbo_tol=0.0)
        res = fit(pixels, init.stack, init.posterior, config)
        stats = solver._factor_statistics(pixels.data, res.posterior.concentration)
        got = solver._update_factors(res.stack, *stats)
        want = reference_mixer_sweep(res.stack, *stats)
        for new, ref in zip([got.basis, *got.mixers], want):
            np.testing.assert_array_equal(new, ref)
        assert not all(map(np.array_equal, got.mixers, res.stack.mixers))

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_sweep_matches_blocks_applied_in_order(self, rng, depth):
        y, stack, betas = random_instance(rng, depth=depth)
        got = solver._update_factors(stack, *solver._factor_statistics(y, betas))
        mats = [stack.basis, *stack.mixers]
        for which in range(len(stack.mixers) + 1):
            # statistics, prefix and suffix products recomputed for every
            # block: the sweep's carried prefix and one set of suffix
            # products (D18) must give the same bits
            mats[which] = block_update(mats, which, y, betas)
        assert isinstance(got, FactorStack)
        assert got.noise_var == stack.noise_var
        assert not np.array_equal(got.basis, stack.basis)
        for new, want in zip([got.basis, *got.mixers], mats):
            np.testing.assert_array_equal(new, want)

    def test_basis_rows_at_desk_scale(self, quick_start_state, monkeypatch):
        # every band row against its own NNLS solve; the batched solve must
        # certify some rows (D21) and send others to the fallback (D22)
        y, _, betas, _, stack = quick_start_state
        _, r, c, _ = block_problem(y, stack, betas, 0)
        exact = solver.nnls
        fallback = []

        def counted(a, b):
            fallback.append(None)
            return exact(a, b)

        monkeypatch.setattr(solver, "nnls", counted)
        mats = [stack.basis, *stack.mixers]
        got = block_update(mats, 0, y, betas)
        low = np.linalg.cholesky(r).T
        for a, ci in zip(got, c):
            want, _ = exact(low, np.linalg.solve(low.T, ci))
            assert float(a @ r @ a - 2.0 * ci @ a) == pytest.approx(
                float(want @ r @ want - 2.0 * ci @ want), rel=1e-10
            )
        assert 0 < len(fallback) < got.shape[0]


def reference_mixer_sweep(stack, ym, pbar):
    """_update_factors' sweep with each mixer column solved as one fresh
    homogenized NNLS (D24) on new buffers, the way a per-column
    _simplex_lsq call solved it: the column target t_j (D23), NNLS,
    u / 1'u, and the keep-old guard (D20).  The basis block is the
    solver's own."""
    mats = [stack.basis, *stack.mixers]
    tail = model._suffix_products(mats)
    prefix = None
    for i, w in enumerate(tail[1:]):
        u, r, c = solver._block_terms(prefix, w, ym, pbar)
        if u is None:
            mats[i] = solver._factor_block(mats[i], u, r, c, i)
        else:
            old = mats[i]
            new = np.array(old)
            low, low_pinv = simplex._reduced_factor(u)
            low_s = low @ new
            low_c = low_pinv @ c
            m, k = low.shape
            for j in np.flatnonzero(np.diag(r) > 0.0):
                target = (low_c[:, j] - low_s @ r[:, j]) / r[j, j] + low_s[:, j]
                lhs = np.ones((m + 1, k))
                rhs = np.zeros(m + 1)
                rhs[m] = 1.0
                np.subtract(target[:, None], low, out=lhs[:m])
                sol, _ = solver.nnls(lhs, rhs)
                new[:, j] = sol / sol.sum()
                low_s[:, j] = low @ new[:, j]

            def objective(x):
                return np.sum(solver._quadratic_part(x, u, r) * x) - 2.0 * np.sum(x * c)

            mats[i] = old if objective(new) > objective(old) else new
        prefix = mats[i] if prefix is None else prefix @ mats[i]
    return mats


class TestBlockQuadratic:
    """The per-block solver of the block quadratic (D17) on fixed depth-2
    and depth-3 stacks."""

    def test_factor_update_never_increases_residual_objective(self, rng):
        for which in (0, 1):
            y, stack, betas = random_instance(rng, depth=2)
            before = elbo_terms(y, expanded_of(stack), betas, stack.noise_var)
            new_stack = solve_block(y, stack, betas, which)
            after = elbo_terms(y, expanded_of(new_stack), betas, stack.noise_var)
            assert after >= before - 1e-10 * (1 + abs(before))

    def test_output_stays_feasible(self, rng):
        y, stack, betas = random_instance(rng, depth=3)
        for which in range(len(stack.mixers) + 1):
            stack = solve_block(y, stack, betas, which)
        assert np.all(stack.basis >= 0)
        for s in stack.mixers:
            np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-9)


class TestFit:
    def test_trace_is_monotone(self, rng):
        y, stack, betas = random_instance(rng, max_dim=7)
        betas = np.maximum(betas, BETA_FLOOR)
        cfg = FitConfig(max_outer_iters=25, rel_elbo_tol=0.0)
        res = fit(y, stack, betas, cfg)
        f = res.trace.elbo
        assert len(res.trace) == 25
        assert np.all(np.diff(f) >= -1e-8 * (1.0 + np.abs(f[:-1])))

    def test_zero_tolerance_runs_all_iterations(self, rng):
        # the stop rule (D29) at its default tolerance
        y, stack, betas = random_instance(rng)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=7, rel_elbo_tol=0.0))
        assert len(res.trace) == 7
        assert res.trace.stop_reason == "max_iters"

    def test_loose_tolerance_stops_early(self, rng):
        # (D29) with a tolerance above 0
        y, stack, betas = random_instance(rng)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=50, rel_elbo_tol=1e-2))
        assert res.trace.stop_reason == "converged"
        assert len(res.trace) < 50

    def test_zero_tolerance_does_not_stop_on_roundoff(self):
        # (D29) at the default tolerance of 0: a relative change in
        # [-1e-10, 0) is roundoff, and the fit goes on.  Exact data started
        # near-certain, test_floor_applies' scene from another seed: the
        # bound's first roundoff dip (-1.09e-12) comes at iteration 4
        r = np.random.default_rng(28)
        basis = r.uniform(0.1, 1.0, (8, 2))
        mixer = sample_dirichlet(np.ones(2), 4, r)
        z = sample_dirichlet(np.ones(4), 40, r)
        stack = FactorStack(basis, (mixer,), 1e-6)
        betas = np.maximum(z * 1e6, BETA_FLOOR)
        res = fit(basis @ mixer @ z, stack, betas, FitConfig(max_outer_iters=100))
        assert res.trace.stop_reason != "converged"

    def test_bound_drop_stops_with_its_own_reason(self, rng, monkeypatch):
        # a noise variance 100x off its closed form lowers the bound (D29)
        y, stack, betas = random_instance(rng)
        exact = solver._noise_var
        calls = []

        def wrong_after_first(*args, **kwargs):
            calls.append(None)
            return exact(*args, **kwargs) * (1.0 if len(calls) == 1 else 100.0)

        monkeypatch.setattr(solver, "_noise_var", wrong_after_first)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=10, rel_elbo_tol=0.0))
        assert res.trace.stop_reason == "bound_decreased"
        assert len(res.trace) == 2
        assert res.trace.elbo[1] < res.trace.elbo[0]

    def test_non_finite_bound_stops_with_its_own_reason(self, rng, monkeypatch):
        # the stop rule (D29) on a NaN bound
        y, stack, betas = random_instance(rng)
        exact = solver._bound
        calls = []

        def nan_on_second(*args, **kwargs):
            calls.append(None)
            return exact(*args, **kwargs) if len(calls) != 2 else float("nan")

        monkeypatch.setattr(solver, "_bound", nan_on_second)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=10, rel_elbo_tol=0.0))
        assert res.trace.stop_reason == "non_finite"
        assert len(res.trace) == 2
        assert np.isnan(res.trace.elbo[1])

    def test_invalid_factor_update_raises(self, rng, monkeypatch):
        # every stack fit holds is validated: a negative basis entry from
        # the factor sweep fails the first iteration
        y, stack, betas = random_instance(rng)
        exact = solver._factor_block
        calls = []

        def negative_basis(old, u, r, c, layer):
            new = exact(old, u, r, c, layer)
            if u is None:
                calls.append(None)
                new = np.array(new)
                new[0, 0] = -1.0
            return new

        monkeypatch.setattr(solver, "_factor_block", negative_basis)
        with pytest.raises(ValidationError, match="negative"):
            fit(y, stack, betas, FitConfig(max_outer_iters=5, rel_elbo_tol=0.0))
        assert len(calls) == 1

    def test_infinite_noise_update_raises(self, rng, monkeypatch):
        y, stack, betas = random_instance(rng)
        monkeypatch.setattr(solver, "_noise_var", lambda *args: np.inf)
        with pytest.raises(ValidationError, match="noise variance: non-finite"):
            fit(y, stack, betas, FitConfig(max_outer_iters=5, rel_elbo_tol=0.0))

    @pytest.mark.parametrize("case", ["quick_start", "depth5", "wide"])
    def test_matches_entry_point_loop(self, rng, case):
        # fit's own statistics give the bits the entry points give,
        # also above one pixel block (wide: 2 100 px, three blocks)
        if case == "quick_start":
            pixels, init = quick_start_init()
            y, stack, betas = pixels.data, init.stack, init.posterior.concentration
        elif case == "depth5":
            y, stack, betas = random_instance(rng, max_dim=10, depth=5)
        else:
            y, stack, betas = wide_instance()
        res = fit(y, stack, betas, FitConfig(max_outer_iters=5, rel_elbo_tol=0.0))
        want, want_betas, bounds, noise = entry_point_fit(y, stack, betas, 5)
        np.testing.assert_array_equal(res.trace.elbo, bounds)
        np.testing.assert_array_equal(res.trace.sigma2, noise)
        np.testing.assert_array_equal(res.posterior.concentration, want_betas)
        np.testing.assert_array_equal(res.stack.basis, want.basis)
        for got, mixer in zip(res.stack.mixers, want.mixers, strict=True):
            np.testing.assert_array_equal(got, mixer)

    def test_forms_statistics_once_per_iteration(self, rng, monkeypatch):
        # no raw-array entry point: the data prologue, so the squared norms,
        # once per fit, (c, G) in it and after each sweep, one residual per
        # iteration besides the concentration passes', and the factor
        # statistics once per iteration, by fit itself: the sweep takes them.  The passes'
        # starting point is evaluated once, before the loop; after that
        # every evaluation is a candidate a search tries
        y, stack, betas = random_instance(rng)
        calls = Counter()

        def refused(*args):
            raise AssertionError("fit called a raw-array entry point")

        def counted(name):
            exact = getattr(solver, name)

            def wrapper(*args):
                calls[name, sys._getframe(1).f_code.co_name] += 1
                return exact(*args)

            return wrapper

        monkeypatch.setattr(solver, "update_beta", refused)
        for name in (
            "_data_terms", "_products", "_expected_resid", "_beta_point",
            "_armijo_trial", "dirichlet_entropy", "_factor_statistics",
        ):
            monkeypatch.setattr(solver, name, counted(name))
        res = fit(y, stack, betas, FitConfig(max_outer_iters=4, rel_elbo_tol=0.0))
        assert len(res.trace) == 4
        trials = calls.pop(("_armijo_trial", "_beta_ascent_chunk"))
        assert trials >= 4 * 10
        assert calls.pop(("_beta_point", "_armijo_trial")) == trials
        assert calls.pop(("_expected_resid", "_beta_point")) == 1 + trials
        assert calls.pop(("dirichlet_entropy", "_beta_point")) == 1 + trials
        assert calls == {
            ("_data_terms", "fit"): 1, ("_products", "_data_terms"): 1,
            ("_products", "fit"): 4,
            ("_expected_resid", "fit"): 4, ("_beta_point", "fit"): 1,
            ("_factor_statistics", "fit"): 4,
        }

    @pytest.mark.parametrize("case", ["quick_start", "deep"])
    def test_evaluates_each_point_once(self, case, monkeypatch):
        # the first entropy evaluation is the starting point; every later
        # one is a candidate a search tries, on the same columns.  At these
        # states the searches retry, so candidates are gathered
        y, stack, betas = retrying_state(case)
        entropy_columns, candidate_columns = [], []
        entropy, trial = solver.dirichlet_entropy, solver._armijo_trial

        def counted_entropy(x):
            entropy_columns.append(x.shape[1])
            return entropy(x)

        def counted_trial(c, *args):
            candidate_columns.append(c.shape[1])
            return trial(c, *args)

        monkeypatch.setattr(solver, "dirichlet_entropy", counted_entropy)
        monkeypatch.setattr(solver, "_armijo_trial", counted_trial)
        fit(y, stack, betas, FitConfig(max_outer_iters=3, rel_elbo_tol=0.0))
        assert entropy_columns == [betas.shape[1]] + candidate_columns
        assert min(candidate_columns) < betas.shape[1]

    @pytest.mark.parametrize("case", ["quick_start", "deep"])
    def test_bound_matches_a_fresh_evaluation(self, case):
        # the traced bound (D2) sums the entropy the passes carried, gathered
        # retries included (D7); it must have the bits of the bound evaluated
        # again from the returned state.  On the deep scene, an entropy
        # that summed a gathered column pairwise is one ulp off at 15
        y, stack, betas = retrying_state(case)
        for iters in (1, 2, 5, 10, 15):
            res = fit(y, stack, betas, FitConfig(max_outer_iters=iters, rel_elbo_tol=0.0))
            fresh = elbo_terms(
                y, compose_expanded(res.stack), res.posterior.concentration, res.stack.noise_var
            )
            assert len(res.trace) == iters
            assert res.elbo == fresh

    def test_first_iteration_time_covers_the_start(self, rng, monkeypatch):
        # fit evaluates the passes' start before its loop, on the first
        # iteration's clock
        y, stack, betas = random_instance(rng)
        point = solver._beta_point

        def slow_start(*args):
            if sys._getframe(1).f_code.co_name == "fit":
                time.sleep(0.05)
            return point(*args)

        monkeypatch.setattr(solver, "_beta_point", slow_start)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=2, rel_elbo_tol=0.0))
        assert res.trace.millis[0] >= 50.0

    def test_builds_one_stack_per_iteration(self, rng, monkeypatch):
        # the loop carries the noise variance as a float: one stack per
        # factor sweep, and one more after the loop that takes the noise
        y, stack, betas = random_instance(rng)
        exact = FactorStack.replace
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(None)
            return exact(self, *args, **kwargs)

        monkeypatch.setattr(FactorStack, "replace", counted)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=4, rel_elbo_tol=0.0))
        assert len(res.trace) == 4
        assert len(calls) == 5
        assert res.stack.noise_var == res.trace.sigma2[-1]

    def test_results_ignore_thread_environment(self, monkeypatch):
        # nothing in the package reads MSSMF_THREADS; and a scene wider than
        # one pixel block gets the same bits in the calling thread (one usable
        # core) and on a thread per further core
        pixels, init = quick_start_init()
        cfg = FitConfig(max_outer_iters=3, rel_elbo_tol=0.0)
        monkeypatch.delenv("MSSMF_THREADS", raising=False)
        unset = fit(pixels, init.stack, init.posterior, cfg)
        monkeypatch.setenv("MSSMF_THREADS", "2")
        assert_same_fit(fit(pixels, init.stack, init.posterior, cfg), unset)

        pools = []
        executor = solver.ThreadPoolExecutor
        monkeypatch.setattr(
            solver, "ThreadPoolExecutor",
            lambda max_workers: pools.append(max_workers) or executor(max_workers),
        )
        runs, sizes = [], []
        for cores in (1, 2, 3):
            usable_cores(monkeypatch, cores)
            runs.append(fit(*wide_instance(), WIDE_CONFIG))
            sizes.append(pools[:])
            pools.clear()
        # one pool per iteration, of one thread per group of blocks beyond
        # the calling thread's: 1 + 2 blocks on two cores, 1 + 1 + 1 on three
        assert sizes == [[], [1] * 3, [2] * 3]
        for res in runs[1:]:
            assert_same_fit(res, runs[0])

    def test_threads_beyond_the_cores_keep_the_bits(self, monkeypatch):
        # six blocks on six threads, more than the machine has cores, with
        # the interpreter switching threads as often as it can: every block
        # writes its own columns of the shared carried arrays, so a lost or
        # misplaced write would change the bits
        instance = wide_instance(6 * 1000)
        usable_cores(monkeypatch, 1)
        alone = fit(*instance, WIDE_CONFIG)
        usable_cores(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_same_fit(fit(*instance, WIDE_CONFIG), alone)
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_fit(self, monkeypatch):
        def no_fork():
            raise AssertionError("fit forked a process")

        monkeypatch.setattr(os, "fork", no_fork)
        usable_cores(monkeypatch, 2)
        before = threading.enumerate()
        fit(*wide_instance(), WIDE_CONFIG)
        assert threading.enumerate() == before

        # a pool thread's failed check reaches the caller with its message
        entropy = solver.dirichlet_entropy

        def poisoned(beta):
            if threading.current_thread() is not threading.main_thread():
                beta = np.full_like(beta, np.nan)
            return entropy(beta)

        monkeypatch.setattr(solver, "dirichlet_entropy", poisoned)
        with pytest.raises(ValidationError, match="must be finite"):
            fit(*wide_instance(), WIDE_CONFIG)
        assert threading.enumerate() == before

    def test_core_count_without_affinity(self, monkeypatch):
        usable_cores(monkeypatch, 1)
        alone = fit(*wide_instance(), WIDE_CONFIG)
        # where the affinity set cannot be read, the machine's count serves
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert solver._usable_cores() == 2
        assert_same_fit(fit(*wide_instance(), WIDE_CONFIG), alone)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert solver._usable_cores() == 1

    def test_deterministic_given_inputs(self, rng):
        y, stack, betas = random_instance(rng)
        cfg = FitConfig(max_outer_iters=6, rel_elbo_tol=0.0)
        r1 = fit(y, stack, betas, cfg)
        r2 = fit(y, stack, betas, cfg)
        np.testing.assert_array_equal(r1.trace.elbo, r2.trace.elbo)
        np.testing.assert_array_equal(r1.trace.sigma2, r2.trace.sigma2)
        np.testing.assert_array_equal(
            r1.posterior.concentration, r2.posterior.concentration
        )

    def test_result_is_feasible(self, rng):
        y, stack, betas = random_instance(rng)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=5, rel_elbo_tol=0.0))
        assert np.all(res.posterior.concentration >= BETA_FLOOR)
        assert np.all(res.stack.basis >= 0)
        np.testing.assert_allclose(res.abundances.sum(axis=0), 1.0, atol=1e-9)

    def test_validates_inputs(self, rng):
        y, stack, betas = random_instance(rng)
        with pytest.raises(ValidationError, match="bands"):
            fit(y[:-1], stack, betas)
        with pytest.raises(ValidationError, match="concentrations"):
            fit(y, stack, betas[:, :-1])
        with pytest.raises(ValidationError, match="floor"):
            fit(y, stack, np.zeros_like(betas))
        with pytest.raises(ValidationError, match="must be finite"):
            fit(y, stack, np.full_like(betas, np.nan))

    def test_reduces_reconstruction_error_on_clean_mixture(self, rng):
        basis = rng.uniform(0.1, 1.0, (10, 3))
        mix = sample_dirichlet(np.ones(3), 6, rng)
        truth = basis @ mix
        z = sample_dirichlet(np.ones(6), 80, rng)
        y = truth @ z
        stack = FactorStack(
            basis=np.maximum(basis + rng.normal(0, 0.05, basis.shape), 0.0),
            mixers=(sample_dirichlet(np.ones(3), 6, rng),),
            noise_var=0.05,
        )
        betas = np.full((6, 80), 1.0)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=30, rel_elbo_tol=0.0))
        err_before = np.linalg.norm(y - expanded_of(stack) @ (betas / betas.sum(0)))
        err_after = np.linalg.norm(y - expanded_of(res.stack) @ res.abundances)
        assert err_after < 0.5 * err_before


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_outer_iters": 0},
            {"rel_elbo_tol": float("nan")},
            {"rel_elbo_tol": -1e-3},
            {"rel_elbo_tol": "abc"},
            {"rel_elbo_tol": None},
            {"rel_elbo_tol": [1e-3, 1e-3]},
            {"rel_elbo_tol": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            FitConfig(**kwargs)

    @pytest.mark.parametrize("tol", [0, True, np.float32(1e-3)], ids=repr)
    def test_stores_the_tolerance_as_a_float(self, tol):
        cfg = FitConfig(rel_elbo_tol=tol)
        assert cfg.rel_elbo_tol == float(tol) and type(cfg.rel_elbo_tol) is float

    @pytest.mark.parametrize("iters", [2.5, 2.0, "3", None, True])
    def test_rejects_non_integer_iteration_counts(self, iters):
        with pytest.raises(ValidationError, match="integer"):
            FitConfig(max_outer_iters=iters)

    def test_takes_numpy_integers(self):
        cfg = FitConfig(max_outer_iters=np.int64(3))
        assert cfg.max_outer_iters == 3 and type(cfg.max_outer_iters) is int
