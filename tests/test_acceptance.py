"""Shipping checklist: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with the measured quantities, so
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  Criteria 3
and 8 run the full desk-scale pipeline and dominate the wall time.
"""

import time

import numpy as np

from mssmf import (
    FitConfig,
    aligned_mse,
    assemble_ground_truth,
    builtin_bases,
    compose_expanded,
    fit,
    gen_dataset,
    init_all,
    vca,
)
from mssmf import solver
from mssmf.cli import main as cli_main
from mssmf.initialization import scls
from mssmf.matio import read_csv_matrix, read_raw64, write_pgm, write_raw64
from mssmf.simplex import sample_dirichlet
from mssmf.synth import gen_variants

from conftest import (
    assignment_bruteforce,
    block_terms,
    central_diff,
    elbo_monte_carlo,
    elbo_terms,
    expanded_of,
    random_instance,
    simplex_lsq_bruteforce,
    squared_distances,
)


def verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_01_gradients_match_finite_differences():
    # the kernels fit runs: the concentration gradient, (D10) and (D11),
    # against central differences of the summed per-pixel bound, and each
    # factor block's quadratic (D17) against the bound, which is exactly
    # -q / (2 sigma2 N) plus a constant in that factor
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    probe = np.random.default_rng(1010)
    worst = 0.0

    def rel(analytic, fd):
        return float(
            np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-300)
        )

    for case in range(20):
        y, stack, betas = random_instance(rng, max_dim=6, depth=2 + case % 2)
        s2, n = stack.noise_var, y.shape[1]
        mats = [stack.basis, *stack.mixers]

        def bound_at(replacement, slot):
            parts = list(mats)
            parts[slot] = replacement
            out = parts[0]
            for mat in parts[1:]:
                out = out @ mat
            return elbo_terms(y, out, betas, s2)

        for slot, x in enumerate(mats):
            u, r, c = block_terms(mats, slot, y, betas)
            q, bound = [], []
            for trial in [x] + [probe.uniform(0.0, 1.0, x.shape) for _ in range(3)]:
                ux = trial if u is None else u @ trial
                q.append(np.sum(ux @ r * trial) - 2.0 * np.sum(trial * c))
                bound.append(bound_at(trial, slot))
            worst = max(worst, rel(
                np.subtract(bound[1:], bound[0]),
                -np.subtract(q[1:], q[0]) / (2.0 * s2 * n),
            ))
        b = expanded_of(stack)
        cb, g = b.T @ y, b.T @ b
        point = solver._beta_point(cb, g, betas, s2)
        worst = max(worst, rel(
            solver._beta_gradient(cb, g, betas, s2, point) / n,
            central_diff(lambda t: solver._beta_point(cb, g, t, s2)[0].sum() / n, betas),
        ))
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 01 gradient check",
        worst < 1e-5 and elapsed < 10.0,
        f"20 instances, worst rel err {worst:.3e} (< 1e-5), {elapsed:.1f} s (< 10 s)",
    )


def test_02_bound_matches_monte_carlo():
    # the bound (D2) fit reports, at the state a one-iteration fit returns
    rng = np.random.default_rng(202)
    worst_z = 0.0
    for _ in range(5):
        y, stack, betas = random_instance(rng, max_dim=5)
        res = fit(y, stack, betas, FitConfig(max_outer_iters=1, rel_elbo_tol=0.0))
        est, se = elbo_monte_carlo(
            y, compose_expanded(res.stack), res.posterior.concentration,
            res.stack.noise_var, 1_000_000, rng,
        )
        worst_z = max(worst_z, abs(res.trace.elbo[-1] - est) / se)
    verdict(
        "criterion 02 bound vs monte carlo",
        worst_z < 3.0,
        f"5 instances at 1e6 draws, worst |z| {worst_z:.2f} (< 3 std errors)",
    )


def test_03_desk_scale_fit_is_monotone():
    start = time.perf_counter()
    truth, _ = assemble_ground_truth(builtin_bases(198), pick=10, seed=33)
    bundle = gen_dataset(truth, 500, 20.0, seed=34)
    init = init_all(bundle.pixels, (6, 18, 30), seed=35)
    config = FitConfig(max_outer_iters=100, rel_elbo_tol=0.0)
    result = fit(bundle.pixels, init.stack, init.posterior, config)
    elapsed = time.perf_counter() - start
    el = np.asarray(result.trace.elbo)
    slack = 1e-8 * (1.0 + np.abs(el[:-1]))
    worst_drop = float(np.min(np.diff(el) + slack)) if el.size > 1 else 0.0
    verdict(
        "criterion 03 monotone fitting",
        el.size == 100 and worst_drop >= 0.0 and elapsed < 60.0,
        f"100 iterations, worst slack-adjusted step {worst_drop:.3e} (>= 0), "
        f"{elapsed:.1f} s (< 60 s)",
    )


def _sigma2_derivative(y, b, betas, s2):
    """Central difference of the bound in sigma2 at s2, step 1e-6 s2."""
    h = 1e-6 * s2
    return (elbo_terms(y, b, betas, s2 + h) - elbo_terms(y, b, betas, s2 - h)) / (2.0 * h)


def test_04_noise_variance_update_is_stationary():
    # init_all's noise variance, the closed form (D15) fit's noise update also
    # runs: on random instances, and at the README quick-start init_all
    # state, where sigma2 is ~1e-4 and the bound's two sigma2 terms are ~1e2
    # nats/pixel each, so the scale-free sigma2 dF/d(sigma2) is checked
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        y, stack, betas = random_instance(rng)
        b = expanded_of(stack)
        s2 = solver._noise_var_at(y, b, betas)
        assert s2 > 1e-12, "instances here never hit the variance floor"
        worst = max(worst, abs(_sigma2_derivative(y, b, betas, s2)))
    truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
    pixels = gen_dataset(truth, n_pixels=500, snr_db=20.0, seed=8).pixels
    init = init_all(pixels, layer_sizes=(6, 18, 30), seed=9)
    s2 = init.stack.noise_var
    b = compose_expanded(init.stack)
    y, betas = pixels.data, init.posterior.concentration
    scaled = abs(s2 * _sigma2_derivative(y, b, betas, s2))
    # the probe sees a 1% miss: there sigma2 dF/d(sigma2) is about m/2 * 0.01
    missed = abs(1.01 * s2 * _sigma2_derivative(y, b, betas, 1.01 * s2))
    verdict(
        "criterion 04 noise variance stationarity",
        worst < 1e-6 and scaled < 1e-6 and missed > 0.1,
        f"10 instances, worst |dF/d(sigma2)| {worst:.3e} (< 1e-6); quick-start "
        f"init_all state, |sigma2 dF/d(sigma2)| {scaled:.3e} nats/pixel (< 1e-6), "
        f"{missed:.3f} at 1.01 sigma2 (> 0.1)",
    )


def test_05_projection_matches_active_set_oracle():
    # the simplex least squares, (D24) after the reduction (D25), behind
    # scls and the mixer sweeps (the id dates from when criterion 05 tested
    # the simplex projection); A and
    # y = A z + noise scale together, so optimal supports of every size occur
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(k + 1, 13))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        a = rng.uniform(0.0, 1.0, (m, k))
        y = scale * (a @ rng.dirichlet(np.ones(k)) + rng.normal(0.0, 0.3, m))
        a *= scale
        s, _ = simplex_lsq_bruteforce(y, a)
        worst = max(worst, float(np.max(np.abs(scls(y[:, None], a)[:, 0] - s))))
    verdict(
        "criterion 05 simplex least squares",
        worst < 1e-9,
        f"1000 instances with K <= 6 < bands, scale 1e-2..1e2, "
        f"worst abs gap on s {worst:.3e} (< 1e-9)",
    )


def test_06_assignment_matches_exhaustive_search():
    # aligned_mse's permutation and MSE (D30) against every permutation of
    # the squared-distance cost
    rng = np.random.default_rng(606)
    bad = 0
    for _ in range(200):
        k = int(rng.integers(2, 8))
        truth = rng.uniform(0.0, 1.0, (int(rng.integers(2, 13)), k))
        est = truth + rng.normal(0.0, 0.3, truth.shape)
        want_perm, want_total = assignment_bruteforce(squared_distances(est, truth))
        want_mse = want_total / (k * np.sum(truth * truth))
        res = aligned_mse(est, truth)
        if abs(res.mse - want_mse) > 1e-12 * want_mse or not np.array_equal(
            res.permutation, want_perm
        ):
            bad += 1
    verdict(
        "criterion 06 assignment optimality",
        bad == 0,
        f"200 estimate/truth pairs with K <= 7, {bad} mismatches in permutation "
        f"or MSE vs exhaustive search",
    )


def test_07_pure_pixel_pipeline_recovers_vertices():
    rng = np.random.default_rng(707)
    m, k, n = 50, 5, 500
    truth_e = rng.uniform(0.1, 1.0, (m, k))
    z = sample_dirichlet(np.ones(k), n, rng)
    for j in range(k):
        pure = np.zeros(k)
        pure[j] = 1.0
        z[:, 40 * j + 7] = pure
    y = truth_e @ z
    est, _ = vca(y, k, seed=1)
    res = aligned_mse(est, truth_e)
    ab = scls(y, est)
    ab_aligned = np.empty_like(ab)
    ab_aligned[res.permutation, :] = ab
    ab_err = float(np.max(np.abs(ab_aligned - z)))
    verdict(
        "criterion 07 pure pixel recovery",
        res.mse < 1e-10 and ab_err < 1e-6,
        f"aligned endmember MSE {res.mse:.3e} (< 1e-10), "
        f"abundance max err {ab_err:.3e} (< 1e-6)",
    )


def test_08_mse_improves_with_snr():
    start = time.perf_counter()
    snrs = (10.0, 20.0, 30.0)
    runs = 10
    config = FitConfig(max_outer_iters=100, rel_elbo_tol=0.0)
    means = []
    for snr in snrs:
        vals = []
        for run in range(runs):
            seed = 8000 + 1000 * run
            truth, _ = assemble_ground_truth(builtin_bases(198), pick=10, seed=seed)
            bundle = gen_dataset(truth, 500, snr, seed=seed + 1)
            init = init_all(bundle.pixels, (6, 18, 30), seed=seed + 2)
            result = fit(bundle.pixels, init.stack, init.posterior, config)
            est = compose_expanded(result.stack)
            vals.append(aligned_mse(est, truth).mse)
        means.append(float(np.mean(vals)))
    elapsed = time.perf_counter() - start
    decreasing = means[0] > means[1] > means[2]
    halved = means[2] < 0.5 * means[0]
    verdict(
        "criterion 08 error vs noise trend",
        decreasing and halved and elapsed < 900.0,
        f"mean aligned MSE at 10/20/30 dB = {means[0]:.4f}/{means[1]:.4f}/"
        f"{means[2]:.4f} (strictly decreasing, 30 dB < half of 10 dB), "
        f"{elapsed:.0f} s (< 900 s)",
    )


def test_09_variant_stack_is_numerically_low_rank(tmp_path):
    bases = builtin_bases(198)
    blocks = [
        gen_variants(bases[:, i], 20, gamma=0.25, seed=900 + i) for i in range(3)
    ]
    stacked = np.hstack(blocks)
    assert stacked.shape == (198, 60)
    src = tmp_path / "stack.raw64"
    out = tmp_path / "spectrum.csv"
    write_raw64(src, stacked)
    code = cli_main(["svd", "--input", str(src), "--out", str(out)])
    s = read_csv_matrix(out)[:, 0]
    ratio = float(s[9] / s[0])
    verdict(
        "criterion 09 low rank variant stack",
        code == 0 and ratio < 0.05 and bool(np.all(np.diff(s) <= 0.0)),
        f"sigma10/sigma1 {ratio:.4f} (< 0.05), spectrum non-increasing",
    )


def test_10_determinism_and_file_contracts(tmp_path):
    scene = tmp_path / "scene"
    synth_args = [
        "synth", "--bases", "builtin", "--bands", "64", "--pick", "5",
        "--pixels", "120", "--snr-db", "20", "--seed", "11",
        "--out", str(scene),
    ]
    assert cli_main(synth_args) == 0
    snap = {p.name: p.read_bytes() for p in scene.iterdir()}
    assert cli_main(synth_args) == 0
    synth_same = all(p.read_bytes() == snap[p.name] for p in scene.iterdir())

    run_dir = tmp_path / "run"
    unmix_args = [
        "unmix", "--input", str(scene / "data.raw64"), "--dims", "3,6,15",
        "--iters", "4", "--seed", "12", "--out", str(run_dir),
    ]

    def covered(p):
        # the criterion covers RAW64 payloads (with sidecars) and manifests;
        # trace.csv carries per-iteration wall clock and varies on purpose
        return p.name == "manifest.json" or ".raw64" in p.suffixes

    assert cli_main(unmix_args) == 0
    snap = {p.name: p.read_bytes() for p in run_dir.iterdir() if covered(p)}
    assert cli_main(unmix_args) == 0
    unmix_same = all(
        p.read_bytes() == snap[p.name] for p in run_dir.iterdir() if covered(p)
    )

    awkward = np.array([
        [0.0, -0.0, 5e-324, -1.5, np.pi],
        [1e308, -1e-308, 2.0 ** -1022, 1.0 / 3.0, -7.25],
    ])
    write_raw64(tmp_path / "awkward.raw64", awkward)
    back = read_raw64(tmp_path / "awkward.raw64")
    raw_ok = back.shape == awkward.shape and np.array_equal(
        back.view(np.uint64), awkward.view(np.uint64)
    )

    raster = np.random.default_rng(10).integers(0, 256, 63, dtype=np.uint8)
    write_pgm(tmp_path / "img.pgm", 9, 7, raster)
    pgm_ok = (tmp_path / "img.pgm").read_bytes() == b"P5\n9 7\n255\n" + raster.tobytes()

    verdict(
        "criterion 10 determinism and formats",
        synth_same and unmix_same and raw_ok and pgm_ok,
        f"synth byte-identical={synth_same}, unmix byte-identical={unmix_same}, "
        f"raw64 bit-exact={raw_ok}, pgm bytes exact={pgm_ok}",
    )


def test_11_layers_beat_flat_fit_and_pure_pixels():
    # the paper's postulate: a multilayer factorization recovers the
    # endmember variants better than the flat (30,) model and than picking
    # 30 observed pixels.  The margins were fixed before any run; no
    # ranking of the bound is asserted (it prefers the flat model)
    start = time.perf_counter()
    truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
    config = FitConfig(max_outer_iters=100, rel_elbo_tol=0.0)
    mse = {"picks": [], (30,): [], (6, 18, 30): []}
    for scene in (8, 1008, 2008, 3008, 4008, 5008):
        pixels = gen_dataset(truth, 500, 20.0, seed=scene).pixels
        mse["picks"].append(aligned_mse(vca(pixels, 30, seed=scene + 1)[0], truth).mse)
        for dims in ((30,), (6, 18, 30)):
            init = init_all(pixels, dims, seed=scene + 1)
            result = fit(pixels, init.stack, init.posterior, config)
            mse[dims].append(aligned_mse(compose_expanded(result.stack), truth).mse)
    picks, flat, deep = (float(np.mean(mse[key])) for key in ("picks", (30,), (6, 18, 30)))
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 11 layers beat flat fit and pure pixels",
        deep <= 0.75 * picks and deep <= 0.5 * flat,
        f"mean aligned MSE over 6 scenes: (6,18,30) {deep:.3e}, VCA picks {picks:.3e} "
        f"(ratio {deep / picks:.2f} <= 0.75), (30,) {flat:.3e} "
        f"(ratio {deep / flat:.2f} <= 0.5), {elapsed:.0f} s",
    )
