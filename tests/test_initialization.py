import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from conftest import reference_vca_picks, simplex_lsq_bruteforce
from mssmf import (
    FactorStack,
    FitConfig,
    ValidationError,
    aligned_mse,
    assemble_ground_truth,
    builtin_bases,
    fit,
    gen_dataset,
    init_all,
    vca,
)
from mssmf import initialization, simplex, solver
from mssmf.initialization import scls
from mssmf.simplex import BETA_FLOOR, sample_dirichlet


# ||y - A s||^2 / 2 at an scls solution is within this of its minimum over
# the simplex; at desk scale the gap is at most about 2.5e-15, and 3.8e-9
# once each solution moves 1e-8 toward a vertex
FW_GAP_BOUND = 1e-13


def frank_wolfe_gap(y, a, s):
    """Per column, the Frank-Wolfe gap (D26) of ||y - A s||^2 / 2, which
    bounds its excess over the minimum on the unit simplex."""
    q = a.T @ (a @ s - y)
    return (q * s).sum(axis=0) - q.min(axis=0)


def toward_far_vertex(s, t):
    """(1 - t) s + t e_j, with j the smallest entry of each column of s: a
    point on the simplex other than s when s has two entries or more."""
    moved = (1.0 - t) * s
    j = np.argmin(s, axis=0, keepdims=True)
    np.put_along_axis(moved, j, np.take_along_axis(moved, j, axis=0) + t, axis=0)
    return moved


def pure_pixel_scene(rng, m=50, k=5, n=500):
    """Noiseless mixtures where every vertex appears as an actual pixel."""
    truth = rng.uniform(0.05, 1.0, (m, k))
    z = sample_dirichlet(np.ones(k), n, rng)
    # plant each vertex at a known pixel
    for j in range(k):
        col = np.zeros(k)
        col[j] = 1.0
        z[:, j * 3] = col
    return truth @ z, truth, z


def picks_and_reference(y, k, seed):
    """vca's pick indices on y and the pseudo-inverse formulation's, from
    the same frame and the same generator."""
    frame = initialization._vca_frame(y)
    got = initialization._vca_picks(frame, k, np.random.default_rng(seed))[1]
    return got, reference_vca_picks(frame, k, np.random.default_rng(seed))


class TestVca:
    def test_pure_pixel_recovery(self, rng):
        y, truth, _ = pure_pixel_scene(rng)
        est, idx = vca(y, 5, seed=1)
        assert aligned_mse(est, truth).mse < 1e-10

    def test_returns_actual_data_columns(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=20, k=4, n=100)
        est, idx = vca(y, 4, seed=2)
        np.testing.assert_array_equal(est, y[:, idx])

    def test_k_equals_one_picks_largest_projection(self, rng):
        # the k = 1 pick of (D27)
        y, _, _ = pure_pixel_scene(rng, m=12, k=3, n=60)
        est, idx = vca(y, 1, seed=0)
        centered = y - y.mean(axis=1, keepdims=True)
        u, _, _ = np.linalg.svd(centered, full_matrices=False)
        want = int(np.argmax(np.abs(u[:, 0] @ y)))
        assert idx[0] == want

    def test_deterministic_for_fixed_seed(self, rng):
        y = rng.uniform(0.0, 1.0, (15, 80))
        _, i1 = vca(y, 4, seed=33)
        _, i2 = vca(y, 4, seed=33)
        np.testing.assert_array_equal(i1, i2)

    def test_insufficient_diversity_raises(self, rng):
        one = rng.uniform(0.1, 1.0, (10, 1))
        y = np.tile(one, (1, 40))  # rank-1 data cannot give 3 vertices
        with pytest.raises(ValidationError, match="spectral diversity"):
            vca(y, 3, seed=0)

    @pytest.mark.parametrize("offset", [1e-9, 1e-6])
    def test_diversity_rule_is_the_covariance_rank(self, rng, offset):
        # the rank rule of (D27) on mixtures of three vertices, the third
        # `offset` off the line through
        # the other two: the covariance's second eigenvalue is about offset^2
        # relative, below bands * eps at 1e-9 and resolved at 1e-6
        a, b = rng.uniform(0.1, 1.0, (2, 10))
        normal = rng.standard_normal(10)
        normal -= (normal @ (b - a)) / ((b - a) @ (b - a)) * (b - a)
        c = 0.5 * (a + b) + offset * normal / np.linalg.norm(normal)
        y = np.column_stack([a, b, c]) @ sample_dirichlet(np.ones(3), 40, rng)
        if offset < 1e-7:
            with pytest.raises(ValidationError, match="spectral diversity"):
                vca(y, 3, seed=0)
        else:
            est, idx = vca(y, 3, seed=0)
            assert est.shape == (10, 3)
            np.testing.assert_array_equal(est, y[:, idx])

    def test_rejects_out_of_range_k(self, rng):
        y = rng.uniform(0.1, 1.0, (6, 30))
        with pytest.raises(ValidationError):
            vca(y, 0, seed=0)
        with pytest.raises(ValidationError):
            vca(y, 7, seed=0)

    def test_count_and_seed_are_checked_before_the_covariance(self, rng):
        # on data whose covariance overflows, a bad k or seed is named,
        # not the covariance
        y = rng.uniform(0.1, 1.0, (6, 30)) * 1e160
        with pytest.raises(ValidationError, match="endmember count must be >= 1"):
            vca(y, 0)
        with pytest.raises(ValidationError, match="seed must be"):
            vca(y, 3, seed=-1)

    def test_noisy_data_still_selects_columns(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=30, k=4, n=200)
        noisy = y + rng.normal(0, 0.1, y.shape)  # low SNR branch
        est, idx = vca(noisy, 4, seed=5)
        np.testing.assert_array_equal(est, noisy[:, idx])

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_thirty_planted_vertices(self, seed):
        # desk geometry: 198 bands, 500 noiseless pixels, 30 vertices
        # planted as pixels 0, 3, ..., 87
        rng = np.random.default_rng(seed)
        y, truth, _ = pure_pixel_scene(rng, m=198, k=30, n=500)
        est, idx = vca(y, 30, seed=seed)
        assert sorted(idx.tolist()) == list(range(0, 90, 3))
        assert aligned_mse(est, truth).mse == 0.0

    def test_one_decomposition_per_call(self, rng, monkeypatch):
        # on noiseless data too, the covariance's decomposition serves the
        # diversity check and the frame the picks are made in
        calls = []
        svd = initialization.np.linalg.svd
        monkeypatch.setattr(
            initialization.np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw)
        )
        y, _, _ = pure_pixel_scene(rng, m=30, k=6, n=200)
        vca(y, 6, seed=0)
        assert len(calls) == 1

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(2, 80), st.data())
    def test_picks_match_reference_on_random_data(self, seed, m, n, data):
        # the picks against the pseudo-inverse form (D28)
        k = data.draw(st.integers(2, min(m, n)), label="k")
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (m, n))
        np.testing.assert_array_equal(*picks_and_reference(y, k, seed))

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(2, 20), st.data())
    def test_picks_match_reference_on_duplicated_pixels(self, seed, m, distinct, data):
        # (D28) on duplicated pixels: every distinct pixel appears at least
        # once, most several times.
        # A product rounds a column by its position in it, so copies of a
        # pixel score a bit apart and roundoff in the direction can pick
        # another copy: the spectra match, the index may name another copy
        k = data.draw(st.integers(2, min(m, distinct)), label="k")
        r = np.random.default_rng(seed)
        cols = np.concatenate([np.arange(distinct), r.integers(0, distinct, 3 * distinct)])
        y = r.uniform(0.0, 1.0, (m, distinct))[:, r.permutation(cols)]
        got, want = picks_and_reference(y, k, seed)
        np.testing.assert_array_equal(y[:, got], y[:, want])

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
    def test_picks_match_reference_on_noise_free_simplex_data(self, seed, vertices, data):
        # (D28) on data in the affine set of the frame (D27)
        m = data.draw(st.integers(vertices, 60), label="bands")
        k = data.draw(st.integers(2, vertices), label="k")
        y, _, _ = pure_pixel_scene(np.random.default_rng(seed), m=m, k=vertices, n=40 * vertices)
        np.testing.assert_array_equal(*picks_and_reference(y, k, seed))

    def test_picks_match_reference_on_the_quick_start_scene(self, quick_start_pixels):
        y = quick_start_pixels.data
        # (D28) for init_all's two runs at seed 9 (dims 6,18,30) and the
        # README's vca call
        basis_seed, expanded_seed, _ = np.random.SeedSequence(9).spawn(3)
        for k, seed in ((6, basis_seed), (30, expanded_seed), (30, 9)):
            np.testing.assert_array_equal(*picks_and_reference(y, k, seed))


def unreduced_simplex_lsq(y, a):
    """Simplex least squares with every band: per pixel, the NNLS
    min ||[y 1' - A; 1'] u - e_last||^2 over u >= 0, then s = u / 1'u."""
    m, k = a.shape
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    out = np.empty((k, y.shape[1]))
    for j in range(y.shape[1]):
        u, _ = nnls(np.vstack([y[:, [j]] - a, np.ones((1, k))]), rhs)
        out[:, j] = u / u.sum()
    return out


def nnls_loop(y, a):
    """scls as one NNLS per pixel (D24), on one QR of a (D25) when it has
    more rows than columns: the loop that every pixel no certified round
    (D31) solves goes to, written out with its buffers."""
    m, k = a.shape
    if m > k:
        q, a = np.linalg.qr(a)
        y = q.T @ y
        m = k
    lhs = np.ones((m + 1, k))
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    out = np.empty((k, y.shape[1]))
    for j in range(y.shape[1]):
        np.subtract(y[:, j, None], a, out=lhs[:m])
        u, _ = nnls(lhs, rhs)
        out[:, j] = u / u.sum()
    return out


def certify_none(g, c, out):
    """A stand-in for simplex._certified_rounds that certifies no column."""
    return np.full(c.shape[1], -1)


def rounds_must_not_run(g, c, out):
    raise AssertionError("the certified rounds ran")


@pytest.fixture(scope="module")
def quick_start_pixels():
    """README quick-start pixels: 198 bands, 500 px, 20 dB (init seed 9,
    dims 6,18,30)."""
    truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
    return gen_dataset(truth, n_pixels=500, snr_db=20.0, seed=8).pixels


@pytest.fixture(scope="module")
def quick_start_endmembers(quick_start_pixels):
    """README quick-start pixels and the 30 VCA endmembers init_all hands
    to scls."""
    seen = []
    patch = pytest.MonkeyPatch()
    patch.setattr(initialization, "scls", lambda px, e: seen.append(e) or scls(px, e))
    try:
        init_all(quick_start_pixels, layer_sizes=(6, 18, 30), seed=9)
    finally:
        patch.undo()
    return quick_start_pixels.data, seen[0]


class TestScls:
    def test_vertex_is_recovered_exactly(self, rng):
        a = rng.uniform(0.1, 1.0, (12, 4))
        s = scls(a[:, :1], a)[:, 0]
        np.testing.assert_allclose(s, np.array([1.0, 0, 0, 0]), atol=1e-8)

    def test_interior_point_recovered(self, rng):
        a = rng.uniform(0.1, 1.0, (20, 3))
        s_star = np.array([0.2, 0.3, 0.5])
        s = scls((a @ s_star)[:, None], a)[:, 0]
        np.testing.assert_allclose(s, s_star, atol=1e-6)

    def test_kkt_residual_small(self, rng):
        # the Frank-Wolfe gap (D26) certifies each solution
        for _ in range(10):
            a = rng.uniform(0.0, 1.0, (15, 5))
            y = rng.uniform(0.0, 1.0, 15)
            s = scls(y[:, None], a)[:, 0]
            assert frank_wolfe_gap(y, a, s) <= FW_GAP_BOUND
            # the bound sees a solution moved 1e-8 toward a vertex
            assert frank_wolfe_gap(y, a, toward_far_vertex(s, 1e-8)) > FW_GAP_BOUND

    def test_stationary_at_desk_scale(self):
        # the Frank-Wolfe gap (D26) on the README quick-start scene against
        # 30 VCA endmembers: the Gram
        # condition number is in the thousands, where a first-order
        # method stalls short of the optimum
        truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
        bundle = gen_dataset(truth, n_pixels=500, snr_db=20.0, seed=8)
        a, _ = vca(bundle.pixels, 30, seed=9)
        y = bundle.pixels.data
        s = scls(bundle.pixels, a)
        assert frank_wolfe_gap(y, a, s).max() <= FW_GAP_BOUND
        moved = frank_wolfe_gap(y, a, toward_far_vertex(s, 1e-8))
        assert moved.max() > FW_GAP_BOUND

    @pytest.mark.parametrize(
        "case", ["generic", "duplicate_column", "near_duplicate_column", "wide"]
    )
    def test_matches_support_enumeration_oracle(self, rng, case):
        # the homogenized NNLS (D24) against support enumeration
        for _ in range(25):
            if case == "wide":
                # more endmembers than bands
                k = int(rng.integers(3, 6))
                m = int(rng.integers(2, k))
            else:
                k = int(rng.integers(1 if case == "generic" else 2, 6))
                m = int(rng.integers(k + 1, 12))
            a = rng.uniform(0.0, 1.0, (m, k))
            if case == "duplicate_column":
                a[:, 0] = a[:, k - 1]
            elif case == "near_duplicate_column":
                # Gram condition number around 1e8, like correlated spectra
                a[:, 0] = a[:, k - 1] + 1e-4 * rng.standard_normal(m)
            y = rng.uniform(-0.2, 1.2, m)
            s = scls(y[:, None], a)[:, 0]
            assert np.all(s >= 0.0)
            assert s.sum() == pytest.approx(1.0, abs=1e-14)
            _, best = simplex_lsq_bruteforce(y, a)
            ours = float(np.sum((y - a @ s) ** 2))
            assert ours == pytest.approx(best, rel=1e-10, abs=1e-10 * float(y @ y))

    @pytest.mark.parametrize(
        "case", ["vca", "duplicated", "rank_deficient", "fewer_bands"]
    )
    def test_reduction_matches_unreduced_solve(self, quick_start_endmembers, case):
        # the solves run on one QR of the endmembers (D25); every pixel's
        # residual must be the one an NNLS over all bands reaches
        y, a = quick_start_endmembers
        if case == "duplicated":
            a = np.hstack([a, a[:, :5]])
        elif case == "rank_deficient":
            a = a.copy()
            a[:, 25:] = a[:, :5] @ np.full((5, 5), 0.2)
        elif case == "fewer_bands":
            # 20 bands, 30 endmembers: nothing to reduce
            y, a = y[::10], a[::10]
        s = scls(y, a)
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-14)
        got = ((y - a @ s) ** 2).sum(axis=0)
        want = ((y - a @ unreduced_simplex_lsq(y, a)) ** 2).sum(axis=0)
        # the VCA picks are pixels, whose residual is zero up to roundoff
        floor = 1e-24 * (y * y).sum(axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * want + floor)

    def test_pixel_solves_have_endmember_count_rows(self, quick_start_endmembers, monkeypatch):
        # (D25): k + 1 rows per solve after the reduction, on the fallback
        # path: the certified rounds (D31) certify no pixel here
        y, a = quick_start_endmembers
        shapes = set()

        def recorded(lhs, rhs):
            shapes.add(lhs.shape)
            return nnls(lhs, rhs)

        # the reduced solve imports nnls from scipy.optimize at each call
        monkeypatch.setattr(scipy.optimize, "nnls", recorded)
        monkeypatch.setattr(simplex, "_certified_rounds", certify_none)
        scls(y[:, :5], a)
        assert shapes == {(31, 30)}
        # with fewer bands than endmembers every band stays
        shapes.clear()
        scls(y[::10, :5], a[::10])
        assert shapes == {(21, 30)}

    @pytest.mark.parametrize(
        "pixels, snr_db", [(500, 20.0), (2000, 20.0), (200, 30.0)], ids=["desk", "wide", "deep"]
    )
    def test_certified_rounds_match_nnls_at_workload_shapes(self, monkeypatch, pixels, snr_db):
        # (D31) on the benchmark's scene shapes against 30 VCA endmembers:
        # the rounds certify most pixels, every pixel's residual is the one
        # the per-pixel NNLS reaches, and the Frank-Wolfe gap (D26)
        # certifies every solution
        truth, _ = assemble_ground_truth(builtin_bases(198), seed=7)
        px = gen_dataset(truth, n_pixels=pixels, snr_db=snr_db, seed=8).pixels
        a, _ = vca(px, 30, seed=9)
        y = px.data
        exact = simplex._certified_rounds
        rounds = []

        def recorded(g, c, out):
            rounds.append(exact(g, c, out))
            return rounds[-1]

        monkeypatch.setattr(simplex, "_certified_rounds", recorded)
        s = scls(y, a)
        certified = np.concatenate(rounds) >= 0
        assert certified.size == pixels and certified.mean() > 0.5
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-14)
        got = ((y - a @ s) ** 2).sum(axis=0)
        want = ((y - a @ nnls_loop(y, a)) ** 2).sum(axis=0)
        # the VCA picks are pixels, whose residual is zero up to roundoff
        floor = 1e-24 * (y * y).sum(axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * want + floor)
        assert frank_wolfe_gap(y, a, s).max() <= FW_GAP_BOUND

    def test_uncertified_pixels_get_the_nnls_loop(self, quick_start_endmembers, monkeypatch):
        # (D31): a pixel no round certifies gets the NNLS solve, bit for bit
        y, a = quick_start_endmembers
        monkeypatch.setattr(simplex, "_certified_rounds", certify_none)
        np.testing.assert_array_equal(scls(y, a), nnls_loop(y, a))

    @pytest.mark.parametrize("case", ["duplicated", "fewer_bands"])
    def test_singular_gram_skips_the_rounds(self, quick_start_endmembers, monkeypatch, case):
        # (D31) runs only on a positive definite Gram (D22): duplicate
        # endmembers, or more endmembers than bands, give the NNLS loop
        y, a = quick_start_endmembers
        if case == "duplicated":
            a = np.hstack([a, a[:, :5]])
        else:
            y, a = y[::10], a[::10]
        monkeypatch.setattr(simplex, "_certified_rounds", rounds_must_not_run)
        np.testing.assert_array_equal(scls(y, a), nnls_loop(y, a))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_overflow_skips_the_rounds(self, monkeypatch):
        # (D31) runs only when k span^2 is finite: at 1e160 the pixels go to
        # the NNLS loop, which solves them (pixels at the vertices) or names
        # the fault (pixels near 1e308), with no warning
        monkeypatch.setattr(simplex, "_certified_rounds", rounds_must_not_run)
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1, (8, 3))
        np.testing.assert_allclose(scls(a * 1e160, a * 1e160), np.eye(3), atol=1e-12)
        with pytest.raises(ValidationError, match="scls: column 0 of the data"):
            scls(rng.uniform(0, 1, (8, 5)) * 1e308, a)

    def test_solves_when_uniform_start_is_in_gram_null_space(self):
        # B^T B = [[2, -2], [-2, 2]] annihilates the uniform start vector
        s = scls(np.array([[1.0], [1.0]]), np.array([[1.0, -1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(s[:, 0], [1.0, 0.0], atol=1e-8)

    def test_zero_endmembers_raise_validation_error(self):
        # scipy's nnls aborts the interpreter on a matrix with no columns,
        # so the call runs in a child: a regression fails this test alone
        code = (
            "import numpy as np, mssmf.initialization\n"
            "try:\n"
            "    mssmf.initialization.scls(np.ones((30, 1)), np.ones((30, 0)))\n"
            "except mssmf.ValidationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr

    def test_single_endmember_returns_one(self, rng):
        a = rng.uniform(0.1, 1.0, (9, 1))
        np.testing.assert_array_equal(scls(rng.uniform(0, 1, (9, 1)), a), [[1.0]])

    def test_batch_matches_per_pixel(self, rng):
        a = rng.uniform(0.1, 1.0, (10, 4))
        y = rng.uniform(0.0, 1.0, (10, 7))
        batch = scls(y, a)
        for j in range(7):
            np.testing.assert_allclose(batch[:, j], scls(y[:, [j]], a)[:, 0], atol=1e-9)

    def test_dominates_every_vertex(self, rng):
        # sanity: optimum cannot be worse than any single endmember
        a = rng.uniform(0.1, 1.0, (8, 4))
        y = rng.uniform(0.0, 1.0, 8)
        s = scls(y[:, None], a)[:, 0]
        ours = np.sum((y - a @ s) ** 2)
        for j in range(4):
            assert ours <= np.sum((y - a[:, j]) ** 2) + 1e-12

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValidationError):
            scls(rng.uniform(0, 1, (9, 1)), rng.uniform(0, 1, (8, 3)))

    def test_non_finite_input_raises(self, rng):
        a = rng.uniform(0, 1, (8, 3))
        y = rng.uniform(0, 1, (8, 1))
        y[2, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            scls(y, a)
        a[0, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            scls(rng.uniform(0, 1, (8, 4)), a)

    # finite inputs at extreme scale leave the NNLS engine's range; each
    # is a ValidationError naming the caller, never scipy's error or a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_reduction_raises(self):
        # the endmembers' QR overflows, so the reduced system is not finite
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1, (8, 3))
        with pytest.raises(ValidationError, match="scls's reduced endmembers: non-finite"):
            scls(rng.uniform(0, 1, (8, 5)), a * 1e308)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "y, endmembers",
        [
            # as many endmembers as bands: no QR, and y - b_l overflows
            (np.full((3, 2), 1e308), -np.full((3, 3), 1e308)),
            # one endmember in 3 bands: the QR is finite, Q'y - R is not
            (np.array([[1e308], [0.0], [0.0]]), -np.array([[1e308], [0.0], [0.0]])),
        ],
        ids=["unreduced", "reduced"],
    )
    def test_overflowing_system_raises(self, y, endmembers):
        with pytest.raises(ValidationError, match="scls's system y 1' - B: non-finite"):
            scls(y, endmembers)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_nnls_solution_raises(self):
        # pixels near 1e308: the sum-to-one row falls below the engine's
        # tolerance and its solution is zero, which has no simplex point
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1, (8, 3))
        with pytest.raises(ValidationError, match="scls: column 0 of the data"):
            scls(rng.uniform(0, 1, (8, 5)) * 1e308, a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_mixer_sweep_zero_solution_raises(self):
        # data near 1e50: a mixer column's NNLS solution is zero in fit
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1, (8, 3))
        y = rng.uniform(0, 1, (8, 6))
        stack = FactorStack(a, (np.eye(3),), 0.1)
        with pytest.raises(ValidationError, match="fit's mixer sweep: column"):
            fit(y * 1e50, stack, np.ones((3, 6)), FitConfig(max_outer_iters=2, rel_elbo_tol=0.0))


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixer_sweep_refusal_names_layer_and_column(self):
        # column 0's target is on the simplex; column 1's, near 1e200, has
        # an NNLS solution of zero: the refusal names that column and layer
        c = np.array([[0.2, 1e200], [0.3, 2e200], [0.5, 3e200]])
        with pytest.raises(
            ValidationError,
            match="fit's mixer sweep: column 1 of the targets of mixing layer 2 is beyond",
        ):
            solver._factor_block(np.full((3, 2), 1.0 / 3.0), np.eye(3), np.eye(2), c, 2)


class TestInitAll:
    def test_shapes_and_feasibility(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=40, k=8, n=300)
        res = init_all(y, (3, 5, 8), seed=4)
        assert res.stack.basis.shape == (40, 3)
        assert [s.shape for s in res.stack.mixers] == [(3, 5), (5, 8)]
        assert res.posterior.concentration.shape == (8, 300)
        assert np.all(res.posterior.concentration >= BETA_FLOOR)
        for s in res.stack.mixers:
            np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-9)
        assert res.stack.noise_var > 0

    def test_concentrations_start_at_abundances(self, rng):
        y, truth, z = pure_pixel_scene(rng, m=30, k=4, n=120)
        res = init_all(y, (2, 4), seed=9)
        totals = res.posterior.concentration.sum(axis=0)
        # scls abundances sum to one per pixel; the concentration floor
        # can add a few 1e-6 on zeroed components
        np.testing.assert_allclose(totals, 1.0, atol=1e-5)

    def test_heavy_noise_keeps_basis_nonnegative(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=40, k=5, n=300)
        noisy = y + rng.normal(0.0, 0.3, y.shape)
        assert noisy.min() < 0  # the scenario being guarded against
        res = init_all(noisy, (3, 5), seed=6)
        assert np.all(res.stack.basis >= 0)

    def test_deterministic(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=25, k=5, n=200)
        r1 = init_all(y, (3, 5), seed=77)
        r2 = init_all(y, (3, 5), seed=77)
        np.testing.assert_array_equal(
            r1.posterior.concentration, r2.posterior.concentration
        )
        np.testing.assert_array_equal(r1.stack.basis, r2.stack.basis)
        for a, b in zip(r1.stack.mixers, r2.stack.mixers):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, rng):
        y = rng.uniform(0.0, 1.0, (25, 200))
        r1 = init_all(y, (3, 5), seed=1)
        r2 = init_all(y, (3, 5), seed=2)
        assert not np.array_equal(r1.stack.mixers[0], r2.stack.mixers[0])

    def test_propagates_dim_errors(self, rng):
        y = rng.uniform(0.0, 1.0, (10, 50))
        with pytest.raises(ValidationError, match="non-decreasing"):
            init_all(y, (5, 3), seed=0)

    def test_expanded_size_above_band_count_raises(self, rng):
        # validate_dims bounds the expanded size by the pixel count only
        y = rng.uniform(0.0, 1.0, (10, 50))
        with pytest.raises(ValidationError, match=r"endmember count 12 exceeds min\(10, 50\)"):
            init_all(y, (3, 12), seed=0)

    def test_one_decomposition_for_both_vca_runs(self, quick_start_pixels, monkeypatch):
        shapes = []
        svd = initialization.np.linalg.svd
        monkeypatch.setattr(
            initialization.np.linalg, "svd",
            lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw),
        )
        init_all(quick_start_pixels, layer_sizes=(6, 18, 30), seed=9)
        assert shapes == [(198, 198)]

    @pytest.mark.parametrize("scene", ["quick_start", "pure_pixels"])
    def test_vca_runs_give_the_public_bits(self, quick_start_pixels, scene):
        if scene == "quick_start":
            px, layers, seed = quick_start_pixels, (6, 18, 30), 9
        else:
            px, _, _ = pure_pixel_scene(np.random.default_rng(3), m=40, k=8, n=300)
            layers, seed = (3, 5, 8), 4
        res = init_all(px, layers, seed=seed)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
        basis = np.maximum(vca(px, layers[0], rngs[0])[0], 0.0)
        betas = np.maximum(scls(px, vca(px, layers[-1], rngs[1])[0]), BETA_FLOOR)
        assert np.array_equal(res.stack.basis, basis)
        assert np.array_equal(res.posterior.concentration, betas)

    def test_overflowing_data_is_a_validation_error(self, rng):
        # finite data whose squared norm overflows: vca's covariance names it
        y, _, _ = pure_pixel_scene(rng, m=30, k=5, n=100)
        with pytest.raises(ValidationError, match="vca's data covariance: non-finite"):
            init_all(y * 1e160, (3, 5), seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "sign,fault",
        [(1.0, "init_all's endmembers: non-finite"), (-1.0, "init_all's data: squared norm")],
    )
    def test_noise_variance_terms_overflow_is_named(self, rng, sign, fault):
        # pixels near 1e160 that vary by 1e-9 of that: the covariance is
        # finite, but B'B overflows for positive pixels, and for negative
        # ones (a basis clipped to zero) ||Y||^2 does
        y = sign * 1e160 * (1.0 + 1e-9 * rng.uniform(0.0, 1.0, (20, 40)))
        with pytest.raises(ValidationError, match=fault):
            init_all(y, (2, 4), seed=0)

    @pytest.mark.parametrize("bad", [6.7, "6", 2.0, True], ids=repr)
    def test_counts_must_be_integers(self, rng, bad):
        # layer sizes and vca's k are counts, like sample_dirichlet's n
        y, _, _ = pure_pixel_scene(rng, m=30, k=8, n=100)
        with pytest.raises(ValidationError, match="layer size must be an integer"):
            init_all(y, (bad, 8), seed=0)
        with pytest.raises(ValidationError, match="endmember count must be an integer"):
            vca(y, bad, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True], ids=repr)
    def test_seed_is_a_count(self, rng, seed):
        y, _, _ = pure_pixel_scene(rng, m=30, k=8, n=100)
        with pytest.raises(ValidationError, match="seed must be"):
            init_all(y, (3, 8), seed=seed)
        with pytest.raises(ValidationError, match="seed must be"):
            vca(y, 3, seed=seed)

    def test_numpy_integer_counts_pass(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=30, k=8, n=100)
        want = init_all(y, (3, 8), seed=0)
        got = init_all(y, (np.int64(3), np.int32(8)), seed=0)
        np.testing.assert_array_equal(got.posterior.concentration, want.posterior.concentration)
        np.testing.assert_array_equal(vca(y, np.int64(3))[1], vca(y, 3)[1])

    def test_basis_columns_come_from_data(self, rng):
        y, _, _ = pure_pixel_scene(rng, m=30, k=6, n=150)
        res = init_all(y, (3, 6), seed=12)
        # every basis column is an observed pixel, as picked by vca
        for col in res.stack.basis.T:
            assert np.any(np.all(y == col[:, None], axis=0))
