import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssmf import (
    ValidationError,
    aligned_mse,
    singular_spectrum,
)

from conftest import assignment_bruteforce, squared_distances


class TestAlignedMse:
    def test_diagonal_zeros_give_identity(self):
        # distinct unit columns: every off-diagonal cost is 2
        res = aligned_mse(np.eye(4), np.eye(4))
        np.testing.assert_array_equal(res.permutation, [0, 1, 2, 3])
        assert res.mse == 0.0

    def test_two_by_two_example(self):
        # costs [[81, 1], [4, 64]]: the swap costs 5, the identity 145
        res = aligned_mse(np.array([[9.0, 2.0]]), np.array([[0.0, 10.0]]))
        np.testing.assert_array_equal(res.permutation, [1, 0])
        assert res.mse == 5.0 / (2 * 100.0)

    def test_matches_bruteforce(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 7))
            truth = rng.uniform(0.0, 1.0, (int(rng.integers(2, 9)), k))
            est = truth + rng.normal(0.0, 0.3, truth.shape)
            res = aligned_mse(est, truth)
            want, total = assignment_bruteforce(squared_distances(est, truth))
            np.testing.assert_array_equal(res.permutation, want)
            assert res.mse == pytest.approx(total / (k * np.sum(truth * truth)), rel=1e-12)

    def test_structured_ties(self, rng):
        # duplicated columns make several assignments optimal: one of them,
        # the same one every call
        a, b = rng.uniform(0.0, 1.0, (2, 6))
        for truth in (
            np.ones((3, 5)),
            np.column_stack([a, a]),
            np.column_stack([a, b, b]),
        ):
            k = truth.shape[1]
            for est in (truth, truth + 0.25):
                res = aligned_mse(est, truth)
                np.testing.assert_array_equal(np.sort(res.permutation), np.arange(k))
                cost = squared_distances(est, truth)
                total = assignment_bruteforce(cost)[1]
                assert cost[np.arange(k), res.permutation].sum() == pytest.approx(
                    total, rel=1e-12, abs=1e-15
                )
                again = aligned_mse(est.copy(), truth.copy())
                np.testing.assert_array_equal(again.permutation, res.permutation)
                assert again.mse == res.mse

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_dominates_every_permutation(self, seed, k):
        r = np.random.default_rng(seed)
        est, truth = r.uniform(0, 1, (2, 5, k))
        res = aligned_mse(est, truth)
        norm = k * np.sum(truth * truth)
        for perm in itertools.permutations(range(k)):
            assert res.mse <= np.sum((est - truth[:, perm]) ** 2) / norm + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_input(self):
        # finite entries near 1e160: a squared distance overflows, and the
        # check on the cost names it
        est = np.array([[1e160, -1e160], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="cost matrix: non-finite"):
            aligned_mse(est, np.array([[-1e160, 1e160], [1.0, 0.0]]))
        # near 1e308 the difference itself overflows
        with pytest.raises(ValidationError, match="cost matrix: non-finite"):
            aligned_mse([[1e308, 0.0]], [[-1e308, 1.0]])
        with pytest.raises(ValidationError, match="at least one column"):
            aligned_mse(np.ones((3, 0)), np.ones((3, 0)))

    def test_zero_on_identical(self, rng):
        a = rng.uniform(0, 1, (12, 5))
        res = aligned_mse(a, a)
        assert res.mse == 0.0
        np.testing.assert_array_equal(res.permutation, np.arange(5))

    def test_column_permutation_invariance_exact(self, rng):
        a = rng.uniform(0, 1, (9, 6))
        e = rng.normal(0, 0.01, (9, 6))
        base = aligned_mse(a + e, a).mse
        shuffled = (a + e)[:, ::-1]
        assert aligned_mse(shuffled, a).mse == base

    def test_reversed_columns_give_zero(self, rng):
        a = rng.uniform(0, 1, (7, 4))
        assert aligned_mse(a[:, ::-1], a).mse == 0.0

    def test_matches_direct_formula_with_bruteforce_permutation(self, rng):
        for _ in range(10):
            a = rng.uniform(0, 1, (6, 4))
            est = a + rng.normal(0, 0.05, a.shape)
            res = aligned_mse(est, a)
            direct = min(
                sum(np.sum((est[:, i] - a[:, p[i]]) ** 2) for i in range(4))
                for p in itertools.permutations(range(4))
            )
            assert res.mse == pytest.approx(direct / (4 * np.sum(a * a)), rel=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError, match="mismatch"):
            aligned_mse(rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (5, 4)))

    @pytest.mark.parametrize("which", ["estimate", "truth"])
    def test_non_finite_input_is_named(self, rng, which):
        # the input at fault, not the cost matrix formed from it
        mats = {"estimate": rng.uniform(0, 1, (5, 3)), "truth": rng.uniform(0, 1, (5, 3))}
        mats[which][2, 1] = np.nan
        mats[which][0, 2] = np.inf
        with pytest.raises(ValidationError, match=f"aligned_mse's {which}: non-finite"):
            aligned_mse(mats["estimate"], mats["truth"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_truth_norm_overflow_is_named(self):
        # the cost is zero and finite; only the normalizer overflows
        b = np.full((4, 1), 1e160)
        with pytest.raises(ValidationError, match="aligned_mse's truth: squared norm overflows"):
            aligned_mse(b, b)


class TestSingularSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(singular_spectrum(np.eye(6)), np.ones(6), atol=1e-12)

    def test_rank_one(self, rng):
        u = rng.normal(size=9)
        v = rng.normal(size=5)
        s = singular_spectrum(np.outer(u, v))
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert np.all(s[1:] < 1e-10 * s[0])

    def test_matches_lapack(self, rng):
        for shape in [(8, 5), (5, 8), (12, 12), (30, 7)]:
            mat = rng.normal(size=shape)
            ours = singular_spectrum(mat)
            ref = np.linalg.svd(mat, compute_uv=False)
            assert ours.size == min(shape)
            np.testing.assert_allclose(ours, ref, atol=1e-8 * ref[0])

    def test_frobenius_identity(self, rng):
        for _ in range(10):
            mat = rng.normal(size=(8, 5)) * rng.uniform(0.1, 10)
            s = singular_spectrum(mat)
            assert np.sum(s * s) == pytest.approx(np.sum(mat * mat), rel=1e-10)

    def test_descending_order(self, rng):
        s = singular_spectrum(rng.normal(size=(20, 9)))
        assert np.all(np.diff(s) <= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            singular_spectrum(np.array([[1.0, np.nan]]))
