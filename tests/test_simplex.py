import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from mssmf import (
    BETA_FLOOR,
    DirichletParam,
    ValidationError,
    digamma,
    dirichlet_entropy,
    dirichlet_mean,
    dirichlet_second_moment,
    log_gamma,
    project_simplex,
    project_simplex_columns,
    sample_dirichlet,
    trigamma,
)

from conftest import simplex_projection_bruteforce

# float64 cannot hold 1e-10 absolute accuracy where the function value is
# ~1e7 (or 1e12), so huge arguments are covered by the relative branch
ABS_TOL = 1e-10
REL_TOL = 1e-12


def _mp_grid():
    return np.concatenate(
        [
            np.logspace(-6, 6, 121),
            np.linspace(0.05, 30.0, 97),
            np.array([1.0, 2.0, 0.5, 1.4616, 6.0, 5.9999999, 6.0000001]),
        ]
    )


def _check_against_mpmath(func, mp_func):
    xs = _mp_grid()
    got = func(xs)
    want = np.array([float(mp_func(mpmath.mpf(float(x)))) for x in xs])
    err = np.abs(got - want)
    rel = err / np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.all((err < ABS_TOL) | (rel < REL_TOL)), (
        f"worst abs {err.max():.3e}, worst rel {rel.max():.3e}"
    )


class TestSpecialFunctions:
    def test_log_gamma_against_mpmath(self):
        _check_against_mpmath(log_gamma, mpmath.loggamma)

    def test_digamma_against_mpmath(self):
        _check_against_mpmath(digamma, lambda z: mpmath.psi(0, z))

    def test_trigamma_against_mpmath(self):
        _check_against_mpmath(trigamma, lambda z: mpmath.psi(1, z))

    def test_trigamma_relative_error_against_mpmath(self):
        # relative only: trigamma reaches 1e12 at the concentration floor,
        # where ABS_TOL would accept any error
        xs = _mp_grid()
        want = np.array([float(mpmath.psi(1, mpmath.mpf(float(x)))) for x in xs])
        rel = np.abs(trigamma(xs) - want) / want
        assert rel.max() < 1e-13, f"worst rel {rel.max():.3e} at {xs[rel.argmax()]}"

    def test_trigamma_entry_depends_on_that_entry_alone(self, rng):
        # the concentration update evaluates column chunks of one array, so
        # an entry's result must not depend on its neighbours
        x = 10.0 ** rng.uniform(-6, 6, (7, 40))
        x[:, ::3] = BETA_FLOOR
        got = trigamma(x)
        for idx in np.ndindex(*x.shape):
            assert got[idx] == trigamma(float(x[idx]))

    def test_scalar_in_scalar_out(self):
        assert isinstance(log_gamma(3.5), float)
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_shape_preserved(self, rng):
        x = rng.uniform(0.1, 9.0, (3, 4))
        for f in (log_gamma, digamma, trigamma):
            assert f(x).shape == (3, 4)

    def test_recurrence_identities(self, rng):
        x = rng.uniform(0.01, 20.0, 200)
        np.testing.assert_allclose(
            log_gamma(x + 1.0) - log_gamma(x), np.log(x), rtol=1e-11, atol=1e-11
        )
        np.testing.assert_allclose(
            digamma(x + 1.0) - digamma(x), 1.0 / x, rtol=1e-9, atol=1e-11
        )
        np.testing.assert_allclose(
            trigamma(x) - trigamma(x + 1.0), 1.0 / x**2, rtol=1e-9, atol=1e-11
        )

    @pytest.mark.parametrize("func", [log_gamma, digamma, trigamma])
    def test_rejects_nonpositive(self, func):
        with pytest.raises(ValidationError):
            func(0.0)
        with pytest.raises(ValidationError):
            func(np.array([1.0, -2.0]))
        with pytest.raises(ValidationError):
            func(np.nan)


class TestProjection:
    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 7))
            v = rng.normal(0.0, rng.uniform(0.2, 5.0), k)
            got = project_simplex(v)
            want = simplex_projection_bruteforce(v)
            assert np.abs(got - want).max() < 1e-9

    def test_feasible_output(self, rng):
        for _ in range(100):
            v = rng.normal(0, 3, int(rng.integers(1, 12)))
            w = project_simplex(v)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-14

    def test_identity_on_simplex_points(self, rng):
        z = sample_dirichlet(np.ones(5), 40, rng)
        for col in z.T:
            np.testing.assert_allclose(project_simplex(col), col, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.floats(-20, 20), min_size=2, max_size=8),
        st.floats(-5, 5),
    )
    def test_invariant_to_constant_shift(self, vals, c):
        # adding c to every coordinate moves the threshold by c, not the result
        v = np.asarray(vals)
        np.testing.assert_allclose(
            project_simplex(v + c), project_simplex(v), atol=1e-9
        )

    def test_columns_variant_agrees(self, rng):
        v = rng.normal(0, 2, (5, 30))
        cols = project_simplex_columns(v)
        for j in range(30):
            np.testing.assert_allclose(cols[:, j], project_simplex(v[:, j]), atol=1e-13)

    def test_single_coordinate(self):
        np.testing.assert_array_equal(project_simplex(np.array([-3.0])), [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            project_simplex(np.array([1.0, np.inf]))

    @pytest.mark.parametrize(
        "mat",
        [[[np.nan], [1.0]], [[np.inf, 1.0], [1.0, 2.0]], [[-np.inf]]],
        ids=["nan", "inf", "single_row"],
    )
    def test_columns_reject_nonfinite(self, mat):
        with pytest.raises(ValidationError):
            project_simplex_columns(np.array(mat))


class TestDirichlet:
    def test_param_floor_enforced(self):
        with pytest.raises(ValidationError, match="floor"):
            DirichletParam(np.full((3, 2), BETA_FLOOR / 2))

    def test_param_total_and_mean(self, rng):
        conc = rng.uniform(0.5, 4.0, (4, 6))
        p = DirichletParam(conc)
        np.testing.assert_allclose(p.total, conc.sum(axis=0))
        np.testing.assert_allclose(p.mean.sum(axis=0), np.ones(6), atol=1e-12)

    def test_mean_formula(self, rng):
        b = rng.uniform(0.2, 5.0, 6)
        np.testing.assert_allclose(dirichlet_mean(b), b / b.sum(), rtol=1e-14)

    def test_second_moment_row_sums_give_mean(self, rng):
        # P @ 1 = m is an identity of the Dirichlet second moment
        b = rng.uniform(0.2, 5.0, 5)
        p = dirichlet_second_moment(b)
        np.testing.assert_allclose(p @ np.ones(5), dirichlet_mean(b), rtol=1e-12)

    def test_second_moment_monte_carlo(self, rng):
        b = np.array([0.8, 2.5, 1.2, 3.0])
        draws = sample_dirichlet(b, 400_000, rng)
        emp = draws @ draws.T / draws.shape[1]
        np.testing.assert_allclose(dirichlet_second_moment(b), emp, atol=2e-3)

    def test_entropy_matches_scipy(self, rng):
        for _ in range(40):
            k = int(rng.integers(2, 7))
            alpha = rng.uniform(0.05, 15.0, k)
            ours = dirichlet_entropy(alpha)
            ref = stats.dirichlet.entropy(alpha)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_entropy_batched_matches_loop(self, rng):
        conc = rng.uniform(0.2, 6.0, (5, 8))
        batched = dirichlet_entropy(conc)
        for j in range(8):
            assert batched[j] == pytest.approx(dirichlet_entropy(conc[:, j]), rel=1e-12)

    def test_sampling_moments(self, rng):
        alpha = np.array([1.0, 3.0, 0.5])
        z = sample_dirichlet(alpha, 200_000, rng)
        assert np.all(z >= 0)
        np.testing.assert_allclose(z.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(z.mean(axis=1), alpha / alpha.sum(), atol=3e-3)

    def test_sampling_rejects_bad_alpha(self, rng):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                sample_dirichlet(np.array([1.0, bad]), 5, rng)

    def test_entropy_uses_gammaln_pieces_correctly(self, rng):
        # independent recomputation from scipy special functions
        b = rng.uniform(0.3, 4.0, 6)
        t = b.sum()
        ref = (
            sp.gammaln(b).sum()
            - sp.gammaln(t)
            + (t - b.size) * sp.psi(t)
            - ((b - 1.0) * sp.psi(b)).sum()
        )
        assert dirichlet_entropy(b) == pytest.approx(ref, rel=1e-11)
