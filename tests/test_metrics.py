import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssmf import (
    ValidationError,
    aligned_mse,
    hungarian,
    singular_spectrum,
)

from conftest import assignment_bruteforce


class TestHungarian:
    def test_diagonal_zeros_give_identity(self):
        cost = np.ones((4, 4))
        np.fill_diagonal(cost, 0.0)
        np.testing.assert_array_equal(hungarian(cost), [0, 1, 2, 3])

    def test_two_by_two_example(self):
        perm = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(perm, [1, 0])

    def test_matches_bruteforce(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 7))
            cost = rng.uniform(0.0, 10.0, (k, k))
            got = hungarian(cost)
            want, total = assignment_bruteforce(cost)
            assert cost[np.arange(k), got].sum() == pytest.approx(total, abs=1e-10)
            np.testing.assert_array_equal(got, want)

    def test_structured_ties(self):
        # several optimal assignments: one of them, the same one every call
        for cost in (
            np.zeros((5, 5)),
            np.ones((2, 2)),
            np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
        ):
            k = cost.shape[0]
            got = hungarian(cost)
            np.testing.assert_array_equal(np.sort(got), np.arange(k))
            assert cost[np.arange(k), got].sum() == assignment_bruteforce(cost)[1]
            np.testing.assert_array_equal(hungarian(cost.copy()), got)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_dominates_every_permutation(self, seed, k):
        cost = np.random.default_rng(seed).uniform(0, 1, (k, k))
        got = hungarian(cost)
        ours = cost[np.arange(k), got].sum()
        for perm in itertools.permutations(range(k)):
            assert ours <= cost[np.arange(k), perm].sum() + 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            hungarian(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))


class TestAlignedMse:
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
