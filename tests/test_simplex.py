import re

import mpmath
import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from mssmf import DirichletParam, ValidationError, model, simplex
from mssmf.simplex import BETA_FLOOR, dirichlet_entropy, sample_dirichlet

from conftest import dirichlet_second_moment, nnls_quadratic_bruteforce

# the Dirichlet moments of one 1-D concentration vector: the mean as
# DirichletParam computes it, and the second-moment oracle
MOMENTS = {
    "dirichlet_mean": lambda b: DirichletParam(np.asarray(b)[:, None]).mean[:, 0],
    "dirichlet_second_moment": dirichlet_second_moment,
}

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
    """Trigamma is in-repo (``simplex._trigamma``, the kernel the
    concentration gradient calls); log-gamma and digamma are scipy's
    gammaln and psi, which dirichlet_entropy evaluates, held to the same
    oracle."""

    def test_log_gamma_against_mpmath(self):
        # the log-gammas of the entropy (D7)
        _check_against_mpmath(sp.gammaln, mpmath.loggamma)

    def test_digamma_against_mpmath(self):
        # the digammas of the entropy (D7)
        _check_against_mpmath(sp.psi, lambda z: mpmath.psi(0, z))

    def test_trigamma_against_mpmath(self):
        # the shift (D8) and the series (D9)
        _check_against_mpmath(simplex._trigamma, lambda z: mpmath.psi(1, z))

    def test_trigamma_relative_error_against_mpmath(self):
        # (D8) and (D9), relative only: trigamma reaches 1e12 at the
        # concentration floor, where ABS_TOL would accept any error
        xs = _mp_grid()
        want = np.array([float(mpmath.psi(1, mpmath.mpf(float(x)))) for x in xs])
        rel = np.abs(simplex._trigamma(xs) - want) / want
        assert rel.max() < 1e-13, f"worst rel {rel.max():.3e} at {xs[rel.argmax()]}"

    def test_trigamma_pairs_match_two_shift_terms(self):
        # (D8) in pairs: 1/a^2 + 1/(a + 1)^2 = u (u + 2) with
        # u = 1/(a (a + 1)), in float64 against mpmath (measured worst
        # 5.5e-16 relative)
        a = np.logspace(-6, 150, 400)
        u = 1.0 / (a * (a + 1.0))
        want = np.array([float(mpmath.mpf(x) ** -2 + (mpmath.mpf(x) + 1) ** -2) for x in a])
        assert (np.abs(u * (u + 2.0) - want) / want).max() < 1e-15

    @pytest.mark.filterwarnings("error")
    def test_trigamma_of_huge_arguments(self):
        # from 1e154 up a (a + 1) overflows in the shift's pairs (D8), whose
        # limit is 0: no warning, and the series (D9) keeps its first two
        # terms, 1/z + 1/(2 z^2)
        z = np.logspace(154, 300, 147)
        np.testing.assert_allclose(simplex._trigamma(z), 1.0 / z + 0.5 / z / z, rtol=1e-15)

    def test_trigamma_entry_depends_on_that_entry_alone(self, rng):
        # the concentration update evaluates column chunks of one array, so
        # an entry's result must not depend on its neighbours (D8)
        x = 10.0 ** rng.uniform(-6, 6, (7, 40))
        x[:, ::3] = BETA_FLOOR
        got = simplex._trigamma(x)
        for idx in np.ndindex(*x.shape):
            assert got[idx] == simplex._trigamma(np.asarray(x[idx]))

    def test_scalar_in_scalar_out(self):
        assert sp.gammaln(1.0) == pytest.approx(0.0, abs=1e-14)
        assert sp.gammaln(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_shape_preserved(self, rng):
        x = rng.uniform(0.1, 9.0, (3, 4))
        for f in (sp.gammaln, sp.psi, simplex._trigamma):
            assert f(x).shape == (3, 4)

    def test_recurrence_identities(self, rng):
        # trigamma's recurrence (D8), and log-gamma's and digamma's
        x = rng.uniform(0.01, 20.0, 200)
        np.testing.assert_allclose(
            sp.gammaln(x + 1.0) - sp.gammaln(x), np.log(x), rtol=1e-11, atol=1e-11
        )
        np.testing.assert_allclose(
            sp.psi(x + 1.0) - sp.psi(x), 1.0 / x, rtol=1e-9, atol=1e-11
        )
        np.testing.assert_allclose(
            simplex._trigamma(x) - simplex._trigamma(x + 1.0), 1.0 / x**2, rtol=1e-9, atol=1e-11
        )


class TestDirichlet:
    def test_param_floor_enforced(self):
        with pytest.raises(ValidationError, match="floor"):
            DirichletParam(np.full((3, 2), BETA_FLOOR / 2))

    def test_param_total_and_mean(self, rng):
        conc = rng.uniform(0.5, 4.0, (4, 6))
        p = DirichletParam(conc)
        np.testing.assert_array_equal(p.concentration, conc)
        np.testing.assert_allclose(p.mean.sum(axis=0), np.ones(6), atol=1e-12)

    def test_mean_formula(self, rng):
        # E[z] of (D4)
        b = rng.uniform(0.2, 5.0, 6)
        np.testing.assert_allclose(MOMENTS["dirichlet_mean"](b), b / b.sum(), rtol=1e-14)

    @pytest.mark.parametrize(
        "conc", [2.0, [1.0, 2.0, 3.0], np.ones((2, 3, 4))], ids=["0d", "1d", "3d"]
    )
    def test_param_must_be_a_matrix(self, conc):
        # not a (1, 1) array, K = 1 with N pixels, or a 3-D array kept as it is
        shape = re.escape(str(np.shape(conc)))
        with pytest.raises(ValidationError, match=f"Dirichlet concentration: .*got shape {shape}"):
            DirichletParam(conc)

    def test_second_moment_row_sums_give_mean(self, rng):
        # P @ 1 = m is an identity of the Dirichlet second moment (D4)
        b = rng.uniform(0.2, 5.0, 5)
        p = dirichlet_second_moment(b)
        np.testing.assert_allclose(p @ np.ones(5), MOMENTS["dirichlet_mean"](b), rtol=1e-12)

    def test_second_moment_monte_carlo(self, rng):
        # E[z z'] of (D4) against Monte Carlo draws
        b = np.array([0.8, 2.5, 1.2, 3.0])
        draws = sample_dirichlet(b, 400_000, rng)
        emp = draws @ draws.T / draws.shape[1]
        np.testing.assert_allclose(dirichlet_second_moment(b), emp, atol=2e-3)

    def test_entropy_matches_scipy(self, rng):
        # (D7) against scipy.stats
        for _ in range(40):
            k = int(rng.integers(2, 7))
            alpha = rng.uniform(0.05, 15.0, k)
            (ours,) = dirichlet_entropy(alpha[:, None])
            ref = stats.dirichlet.entropy(alpha)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize(
        "conc", [2.0, np.ones(3), np.ones((2, 3, 4))], ids=["0d", "1d", "3d"]
    )
    def test_entropy_takes_a_matrix(self, conc):
        # K x N only: a vector is not read as one pixel, nor a 3-D array as
        # a stack of matrices
        shape = re.escape(str(np.shape(conc)))
        with pytest.raises(ValidationError, match=f"dirichlet_entropy: .*got shape {shape}"):
            dirichlet_entropy(conc)

    def test_entropy_batched_matches_loop(self, rng):
        conc = rng.uniform(0.2, 6.0, (5, 8))
        batched = dirichlet_entropy(conc)
        for j in range(8):
            (one,) = dirichlet_entropy(conc[:, j, None])
            assert batched[j] == pytest.approx(one, rel=1e-12)

    def test_sampling_moments(self, rng):
        # the sampler's draws against the mean of (D4)
        alpha = np.array([1.0, 3.0, 0.5])
        z = sample_dirichlet(alpha, 200_000, rng)
        assert np.all(z >= 0)
        np.testing.assert_allclose(z.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(z.mean(axis=1), alpha / alpha.sum(), atol=3e-3)

    @pytest.mark.parametrize("alpha", [np.ones((3, 2)), 2.0], ids=["2d", "0d"])
    def test_sampling_takes_a_vector(self, rng, alpha):
        # one shape rule that names the function and the shape: a K x N
        # matrix of concentrations is not one alpha
        shape = re.escape(str(np.shape(alpha)))
        with pytest.raises(ValidationError, match=f"sample_dirichlet.*got shape {shape}"):
            sample_dirichlet(alpha, 2, rng)

    def test_sampling_rejects_bad_alpha(self, rng):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                sample_dirichlet(np.array([1.0, bad]), 5, rng)

    def test_entropy_uses_gammaln_pieces_correctly(self, rng):
        # (D7), recomputed from scipy special functions
        b = rng.uniform(0.3, 4.0, 6)
        t = b.sum()
        ref = (
            sp.gammaln(b).sum()
            - sp.gammaln(t)
            + (t - b.size) * sp.psi(t)
            - ((b - 1.0) * sp.psi(b)).sum()
        )
        assert dirichlet_entropy(b[:, None])[0] == pytest.approx(ref, rel=1e-11)


class TestCertifiedRounds:
    """The certified rounds (D31) on the plain, unbordered system of the
    basis rows (D21): min a'Ra - 2 c'a over a >= 0 per row c of C, every
    entry signed, from a given starting free set."""

    @pytest.mark.parametrize("start", ["empty", "full", "random"])
    def test_plain_rounds_match_support_enumeration(self, rng, start):
        # every certified row is the optimum, and every other row of x is
        # zero: a row leaves uncertified when its count of wrong entries
        # stalls, or when its exchange would empty its free set, as it does
        # from a wrong support for most rows whose optimum is zero
        certified, shared = [], []
        for _ in range(20):
            k = int(rng.integers(1, 7))
            root = rng.standard_normal((k + 3, k))
            r = root.T @ root
            c = rng.standard_normal((12, k))
            # c <= 0 makes a = 0 the optimum
            c[:3] = -np.abs(c[:3])
            free = {
                "empty": np.zeros(c.shape, dtype=bool),
                "full": np.ones(c.shape, dtype=bool),
                "random": rng.random(c.shape) < 0.5,
            }[start]
            given = free.copy()
            x, rounds = simplex._certified_rounds(r, c, free, k)
            np.testing.assert_array_equal(free, given)
            done = rounds >= 0
            np.testing.assert_array_equal(x[~done], 0.0)
            for a, ci, ok in zip(x, c, done):
                best, want = nnls_quadratic_bruteforce(r, ci)
                if ok:
                    assert np.all(a >= 0.0)
                    assert float(a @ r @ a - 2.0 * ci @ a) == pytest.approx(want, rel=1e-10)
                if best.any():
                    certified.append(ok)
            if start == "empty":
                # the size-0 group of round 0 certifies a = 0 where c <= 0
                assert np.all(rounds[:3] == 0)
            if start == "full":
                # round 0 on full free sets is one shared solve, whose bits
                # scls keeps
                first = rounds == 0
                shared.append(first.sum())
                np.testing.assert_array_equal(x[first], np.linalg.solve(r, c.T).T[first])
        assert np.mean(certified) > 0.9
        assert start != "full" or sum(shared) > 0


def _entropy_reference(b):
    """The Dirichlet entropy from scipy's gammaln and psi, on a (K, N)
    matrix, in the order of the textbook expression."""
    k = b.shape[0]
    t = b.sum(axis=0)
    return (
        sp.gammaln(b).sum(axis=0)
        - sp.gammaln(t)
        + (t - k) * sp.psi(t)
        - ((b - 1.0) * sp.psi(b)).sum(axis=0)
    )


def _grid_matrix(rng, k, n):
    """k x n concentrations spread log-uniformly from BETA_FLOOR to 1e6,
    with some entries exactly on the floor."""
    x = rng.permutation(np.logspace(np.log10(BETA_FLOOR), 6, k * n)).reshape(k, n)
    x[:, ::7] = BETA_FLOOR
    return x


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestChecks:
    """Each array is checked once: dirichlet_entropy checks its argument
    and its result and calls scipy directly.  None of that may change a
    bit."""

    @pytest.mark.parametrize("shape", [(2, 50), (6, 40), (30, 200)])
    def test_entropy_matches_wrapper_expression(self, rng, shape):
        x = _grid_matrix(rng, *shape)
        assert np.array_equal(dirichlet_entropy(x), _entropy_reference(x))
        # one column gets the bits it has in the whole matrix
        whole = _entropy_reference(x)
        for j in range(min(10, x.shape[1])):
            assert np.array_equal(dirichlet_entropy(x[:, j, None]), whole[j : j + 1])

    @pytest.mark.parametrize("k", [6, 18, 30])
    def test_entropy_of_a_column_depends_on_it_alone(self, rng, k):
        # the solver keeps the entropy of gathered pixels as the whole
        # array's (D7); b[:, idx] is not C-ordered, and numpy sums a lone
        # contiguous column pairwise
        x = _grid_matrix(rng, k, 600)
        whole = dirichlet_entropy(x)
        for n in (1, 2, 3, 7, 8, 9, 64, 250, 500):
            idx = np.sort(rng.choice(x.shape[1], n, replace=False))
            gathered = x[:, idx]
            assert np.array_equal(dirichlet_entropy(gathered), whole[idx])
            assert np.array_equal(dirichlet_entropy(np.ascontiguousarray(gathered)), whole[idx])
            assert np.array_equal(dirichlet_entropy(np.asfortranarray(gathered)), whole[idx])
            assert np.array_equal(dirichlet_entropy(x[:, idx[:1]]), whole[idx[:1]])
            assert np.array_equal(dirichlet_entropy(x[:, idx[0], None]), whole[idx[:1]])

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 5e-324, 1e308]
    )
    def test_prep_arg_keeps_its_accepted_set(self, value):
        for x in (np.float64(value), np.array([1.0, value]), np.full((2, 3), value)):
            z = np.asarray(x, dtype=np.float64)
            rejected_before = not np.all(np.isfinite(z)) or np.any(z <= 0)
            if rejected_before:
                with pytest.raises(ValidationError):
                    model._prep_arg(x, "probe")
            else:
                assert np.array_equal(model._prep_arg(x, "probe"), z)

    def test_prep_arg_accepts_empty(self):
        for x in (np.empty(0), np.empty((3, 0))):
            assert model._prep_arg(x, "probe").shape == x.shape

    @pytest.mark.parametrize("value", [1e307, 1e308])
    def test_entropy_overflow_raises(self, value):
        # 1e307: the log-gammas overflow; 1e308: the total itself does
        with pytest.raises(ValidationError, match="dirichlet_entropy"):
            dirichlet_entropy(np.full((3, 1), value))
        with pytest.raises(ValidationError, match="dirichlet_entropy"):
            dirichlet_entropy(np.column_stack([np.ones(3), np.full(3, value)]))

    @pytest.mark.parametrize("func", sorted(MOMENTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_moments_reject_bad_concentrations(self, func, bad):
        with pytest.raises(ValidationError):
            MOMENTS[func](np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("func", sorted(MOMENTS))
    def test_moments_reject_all_zero(self, func):
        with pytest.raises(ValidationError):
            MOMENTS[func](np.zeros(3))

    @pytest.mark.parametrize("n", [2.5, 2.0, -1, "3", None, True])
    def test_sampling_rejects_bad_counts(self, rng, n):
        with pytest.raises(ValidationError):
            sample_dirichlet(np.ones(3), n, rng)

    def test_sampling_takes_numpy_and_zero_counts(self, rng):
        assert sample_dirichlet(np.ones(3), np.int64(4), rng).shape == (3, 4)
        assert sample_dirichlet(np.ones(3), 0, rng).shape == (3, 0)

    def test_sampling_takes_an_integer_seed(self):
        # a seed builds its generator as every other seeded entry point does
        alpha = np.array([0.5, 1.0, 3.0])
        want = sample_dirichlet(alpha, 7, np.random.default_rng(11))
        np.testing.assert_array_equal(sample_dirichlet(alpha, 7, 11), want)
        np.testing.assert_array_equal(sample_dirichlet(alpha, 7, np.int64(11)), want)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True])
    def test_sampling_rejects_bad_seeds(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample_dirichlet(np.ones(3), 4, seed)
