import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_gen_dataset
from mssmf import (
    ValidationError,
    assemble_ground_truth,
    builtin_bases,
    gen_dataset,
    gen_variants,
)


class TestBuiltinBases:
    def test_deterministic_and_bounded(self):
        b1 = builtin_bases(198)
        b2 = builtin_bases(198)
        np.testing.assert_array_equal(b1, b2)
        assert b1.shape == (198, 3)
        assert b1.min() >= 0.05 and b1.max() <= 0.95

    def test_other_band_counts(self):
        assert builtin_bases(64).shape == (64, 3)
        with pytest.raises(ValidationError):
            builtin_bases(1)


class TestGenVariants:
    def test_gamma_zero_reproduces_base(self, rng):
        base = rng.uniform(0.1, 1.0, 50)
        v = gen_variants(base, 7, gamma=0.0, seed=3)
        for j in range(7):
            np.testing.assert_allclose(v[:, j], base, rtol=1e-15)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.9), st.integers(2, 12))
    def test_per_band_bound_holds(self, seed, gamma, knots):
        r = np.random.default_rng(seed)
        base = r.uniform(0.0, 1.0, 40)
        v = gen_variants(base, 5, gamma=gamma, knots=knots, seed=seed)
        bound = gamma * base[:, None] * (1 + 1e-12) + 1e-15
        assert np.all(np.abs(v - base[:, None]) <= bound)
        assert np.all(v >= 0)

    def test_deterministic(self):
        base = builtin_bases(60)[:, 0]
        v1 = gen_variants(base, 4, seed=9)
        v2 = gen_variants(base, 4, seed=9)
        np.testing.assert_array_equal(v1, v2)

    def test_input_validation(self, rng):
        base = rng.uniform(0.1, 1.0, 20)
        with pytest.raises(ValidationError):
            gen_variants(base, 3, gamma=1.0)
        with pytest.raises(ValidationError):
            gen_variants(base, 3, knots=1)
        with pytest.raises(ValidationError):
            gen_variants(-base, 3)
        with pytest.raises(ValidationError):
            gen_variants(base, 0)


class TestAssembleGroundTruth:
    def test_default_sizes(self):
        truth, labels = assemble_ground_truth(builtin_bases(100), seed=0)
        assert truth.shape == (100, 30)
        assert labels.shape == (30,)

    def test_labels_partition_evenly(self):
        _, labels = assemble_ground_truth(builtin_bases(50), pick=7, seed=1)
        vals, counts = np.unique(labels, return_counts=True)
        np.testing.assert_array_equal(vals, [0, 1, 2])
        assert np.all(counts == 7)

    def test_pick_all_keeps_every_variant(self):
        truth, _ = assemble_ground_truth(
            builtin_bases(40), variants_per_base=5, pick=5, seed=2
        )
        assert truth.shape[1] == 15

    def test_pick_larger_than_pool_fails(self):
        with pytest.raises(ValidationError, match="pick"):
            assemble_ground_truth(builtin_bases(40), variants_per_base=5, pick=6)

    def test_deterministic(self):
        t1, l1 = assemble_ground_truth(builtin_bases(64), seed=5)
        t2, l2 = assemble_ground_truth(builtin_bases(64), seed=5)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(l1, l2)


_BASE = np.linspace(0.2, 0.8, 12)
_NAN_BASE = np.array([np.nan, 1.0, 1.0])


@pytest.mark.parametrize(
    "call,fragment",
    [
        (lambda: gen_variants(_NAN_BASE, 2), "base spectrum"),
        (lambda: assemble_ground_truth(_NAN_BASE[:, None], 4, pick=2), "base spectrum"),
        (lambda: gen_variants(_BASE, 2.0), "count"),
        (lambda: gen_variants(_BASE, True), "count"),
        (lambda: gen_variants(_BASE, 2, knots=3.0), "knots"),
        (lambda: gen_variants(_BASE, 2, gamma="wide"), "gamma"),
        (lambda: assemble_ground_truth(builtin_bases(20), 4, pick=2.0), "pick"),
        (lambda: assemble_ground_truth(builtin_bases(20), 4.0, pick=2), "variants_per_base"),
        (lambda: builtin_bases(20.0), "band count"),
        (lambda: gen_dataset(builtin_bases(20), 10, "twenty"), "snr_db"),
        (lambda: gen_dataset(builtin_bases(20), 10, [20.0, 30.0]), "snr_db"),
        (lambda: gen_dataset(builtin_bases(20), 10.0, 20.0), "n_pixels"),
        (lambda: gen_dataset(np.full((20, 3), np.inf), 10, 20.0), "endmembers"),
        (lambda: gen_variants(_BASE, 2, seed=True), "seed must be"),
        (lambda: assemble_ground_truth(builtin_bases(20), 4, pick=2, seed=-1), "seed must be"),
        (lambda: gen_dataset(builtin_bases(20), 10, 20.0, seed=1.5), "seed must be"),
        (lambda: gen_dataset(builtin_bases(20), 10, 20.0, seed="3"), "seed must be"),
    ],
    ids=[
        "nan_base", "nan_bases", "float_count", "bool_count", "float_knots", "text_gamma",
        "float_pick", "float_pool", "float_bands", "text_snr", "array_snr",
        "float_pixels", "inf_endmembers", "bool_seed", "negative_seed", "float_seed",
        "text_seed",
    ],
)
def test_bad_synth_inputs_raise_validation_error(call, fragment):
    # every input goes through the package's checks: no NaN output, no
    # TypeError from numpy
    with pytest.raises(ValidationError, match=fragment):
        call()


def test_numeric_text_snr_reads_as_its_number():
    # one number, as for a noise variance: "20" is 20 dB
    truth = builtin_bases(20)
    text = gen_dataset(truth, 10, "20", seed=3)
    number = gen_dataset(truth, 10, 20.0, seed=3)
    np.testing.assert_array_equal(text.pixels.data, number.pixels.data)


# (bands, n_pixels, snr_db, seed); at 30 bands x 1 or x 500 px a C-ordered
# operand rounds the mixture differently from an F-ordered one
GEN_CASES = [
    (198, 500, 20.0, 8), (30, 1, 5.0, 0), (80, 333, 40.0, 2**40), (12, 64, np.inf, 5),
    (30, 500, 20.0, 3),
]


class TestGenDataset:
    def test_noiseless_is_exact(self):
        truth, _ = assemble_ground_truth(builtin_bases(80), seed=3)
        bundle = gen_dataset(truth, 64, np.inf, seed=3)
        np.testing.assert_array_equal(bundle.pixels.data, truth @ bundle.abundances)
        assert bundle.sigma2 == 0.0

    def test_sigma2_matches_snr_definition_exactly(self):
        truth, _ = assemble_ground_truth(builtin_bases(80), seed=4)
        bundle = gen_dataset(truth, 100, 17.0, seed=4)
        clean = truth @ bundle.abundances
        snr = 10.0 * np.log10(np.mean(clean**2) / bundle.sigma2)
        assert snr == pytest.approx(17.0, abs=1e-12)

    def test_empirical_noise_variance(self):
        # desk check of the full-size protocol: realized noise within 5%
        truth, _ = assemble_ground_truth(builtin_bases(198), seed=6)
        bundle = gen_dataset(truth, 2500, 20.0, seed=6)
        noise = bundle.pixels.data - truth @ bundle.abundances
        assert noise.var() == pytest.approx(bundle.sigma2, rel=0.05)

    def test_abundances_on_simplex(self):
        truth, _ = assemble_ground_truth(builtin_bases(30), seed=7)
        bundle = gen_dataset(truth, 250, 25.0, seed=7)
        assert np.all(bundle.abundances >= 0)
        np.testing.assert_allclose(bundle.abundances.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "bands,n_pixels,snr_db,seed,order",
        # an F case is named by its shape alone, a C case ends in -C
        [pytest.param(*case, "F", id="-".join(map(str, case))) for case in GEN_CASES]
        + [(*case, "C") for case in GEN_CASES],
    )
    def test_matches_clean_plus_noise_reference(self, bands, n_pixels, snr_db, seed, order):
        # the noise is drawn into its own array and the mixture added into
        # it; the bits are those of clean + noise, with the mixture formed
        # from the F-ordered truth whatever the layout of the endmembers
        # passed in (a C-ordered operand runs another BLAS kernel)
        truth, _ = assemble_ground_truth(builtin_bases(bands), seed=seed)
        bundle = gen_dataset(np.asarray(truth, order=order), n_pixels, snr_db, seed=seed)
        y, z, sigma2 = reference_gen_dataset(truth, n_pixels, snr_db, seed)
        np.testing.assert_array_equal(bundle.pixels.data, y)
        np.testing.assert_array_equal(bundle.abundances, z)
        assert bundle.sigma2 == sigma2

    def test_deterministic(self):
        truth, _ = assemble_ground_truth(builtin_bases(30), seed=8)
        b1 = gen_dataset(truth, 40, 20.0, seed=9)
        b2 = gen_dataset(truth, 40, 20.0, seed=9)
        np.testing.assert_array_equal(b1.pixels.data, b2.pixels.data)

    def test_input_validation(self):
        truth, _ = assemble_ground_truth(builtin_bases(30), seed=8)
        with pytest.raises(ValidationError):
            gen_dataset(truth, 0, 20.0)
        with pytest.raises(ValidationError):
            gen_dataset(truth, 10, np.nan)
        with pytest.raises(ValidationError):
            gen_dataset(truth, 10, -np.inf)
