import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssmf import (
    DirichletParam,
    FactorStack,
    FitConfig,
    ValidationError,
    aligned_mse,
    assemble_ground_truth,
    compose_expanded,
    fit,
    gen_dataset,
    init_all,
    singular_spectrum,
    update_beta,
    vca,
)
from mssmf.initialization import scls
from mssmf.matio import write_csv_matrix, write_raw64
from mssmf.model import NOISE_VAR_FLOOR, PixelMatrix, validate_dims
from mssmf.simplex import BETA_FLOOR, dirichlet_entropy, sample_dirichlet
from mssmf.synth import gen_variants

from conftest import elbo_terms, expanded_of, random_instance


class TestPixelMatrix:
    def test_shape_and_immutability(self):
        px = PixelMatrix(np.ones((4, 7)))
        assert px.bands == 4 and px.pixels == 7
        with pytest.raises(ValueError):
            px.data[0, 0] = 2.0

    def test_rejects_nonfinite(self):
        bad = np.ones((3, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError):
            PixelMatrix(bad)


class TestModelDims:
    def test_valid_chain_passes(self):
        validate_dims(198, (6, 18, 30), 2500)

    @pytest.mark.parametrize(
        "dims,fragment",
        [
            ((0, (2,), 5), "band count"),
            ((5, (2,), 0), "pixel count"),
            ((5, (), 5), "at least one"),
            ((5, (3, 2), 5), "non-decreasing"),
            ((2, (3, 4), 5), "first layer"),
            ((9, (3, 8), 5), "expanded size"),
        ],
    )
    def test_violations_name_the_constraint(self, dims, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate_dims(*dims)

    @pytest.mark.parametrize(
        "dims,fragment",
        [
            ((198, (6.5, 18), 500), "layer size must be an integer"),
            ((198, (6, 18.0), 500), "layer size must be an integer"),
            ((198.5, (6, 18), 500), "band count must be an integer"),
            ((198, (6, 18), "500"), "pixel count must be an integer"),
            ((198, (True, 18), 500), "layer size must be an integer"),
        ],
    )
    def test_sizes_must_be_integers(self, dims, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate_dims(*dims)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: FactorStack(np.ones((5, 0))),
            lambda: FactorStack(np.ones((5, 2)), [np.ones((2, 0))]),
            lambda: DirichletParam(np.ones((0, 4))),
            lambda: elbo_terms(np.ones((5, 4)), np.ones((5, 0)), np.ones((0, 4)), 0.1),
            lambda: update_beta(np.ones((5, 4)), np.ones((5, 0)), np.ones((0, 4)), 0.1, 1),
            lambda: assemble_ground_truth(np.ones((5, 0)), pick=2),
            lambda: gen_dataset(np.ones((5, 0)), 4, 20.0),
            lambda: aligned_mse(np.ones((3, 0)), np.ones((3, 0))),
            lambda: sample_dirichlet(np.ones(0), 3, np.random.default_rng(0)),
            lambda: dirichlet_entropy(np.ones((0, 3))),
            lambda: gen_variants(np.ones(0), 2),
            lambda: assemble_ground_truth(np.ones((0, 3)), pick=2),
            lambda: gen_dataset(np.ones((0, 3)), 5, 20.0),
        ],
        ids=[
            "stack_basis", "stack_mixer", "concentrations", "elbo_terms", "update_beta",
            "ground_truth", "dataset", "aligned_mse",
            "sample_no_categories", "entropy_no_categories",
            "variants_no_bands", "ground_truth_no_bands", "dataset_no_bands",
        ],
    )
    def test_zero_endmembers_raise_validation_error(self, call):
        # K = 0, like a layer size of 0 above, and likewise zero categories
        # or zero bands: not an empty result, a number, or an error from
        # inside numpy or about something else
        with pytest.raises(ValidationError, match="at least one"):
            call()

    def test_returns_the_layer_sizes_as_ints(self):
        layers = validate_dims(np.int64(198), [np.int32(6), 18, np.int64(30)], 500)
        assert layers == (6, 18, 30)
        assert all(type(k) is int for k in layers)


def _matrix_arguments():
    """{id: (a valid matrix, the name the check gives it, call(matrix))}
    for every matrix argument of the public surface; each call is valid
    with the valid matrix."""
    r = np.random.default_rng(3)
    y = r.uniform(0.1, 1.0, (6, 8))
    basis = r.uniform(0.1, 1.0, (6, 2))
    mixer = sample_dirichlet(np.ones(2), 3, r)
    stack = FactorStack(basis, (mixer,), 0.1)
    betas = np.ones((3, 8))
    ends = r.uniform(0.1, 1.0, (6, 3))
    return {
        "pixels": (y, "pixel matrix", PixelMatrix),
        "stack_basis": (basis, "core basis", FactorStack),
        "stack_mixer": (mixer, "mixing layer 1", lambda m: FactorStack(basis, (m,))),
        "concentrations": (betas, "Dirichlet concentration", DirichletParam),
        "scls_endmembers": (ends, "scls's endmembers", lambda m: scls(y, m)),
        "scls_pixels": (y, "pixel matrix", lambda m: scls(m, ends)),
        "ground_truth": (
            basis, "assemble_ground_truth's base spectrum matrix",
            lambda m: assemble_ground_truth(m, pick=2),
        ),
        "dataset": (ends, "gen_dataset's endmembers", lambda m: gen_dataset(m, 5, 20.0)),
        "aligned_estimate": (ends, "aligned_mse's estimate", lambda m: aligned_mse(m, ends)),
        "aligned_truth": (ends, "aligned_mse's truth", lambda m: aligned_mse(ends, m)),
        "spectrum": (ends, "singular_spectrum's input", singular_spectrum),
        "vca": (y, "pixel matrix", lambda m: vca(m, 2, seed=0)),
        "init_all": (y, "pixel matrix", lambda m: init_all(m, (2, 3), seed=0)),
        "fit": (
            y, "pixel matrix",
            lambda m: fit(m, stack, betas, FitConfig(max_outer_iters=1, rel_elbo_tol=0.0)),
        ),
    }


def _with_nan(m):
    out = np.array(m)
    out[0, 0] = np.nan
    return out


_NOT_A_MATRIX = {
    "1d": lambda m: m[0],
    "3d": lambda m: m[:, :, None],
    "no_rows": lambda m: m[:0],
    "no_columns": lambda m: m[:, :0],
    "nan": _with_nan,
    "ragged": lambda m: [list(m[0]), list(m[1, :-1])],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fault", sorted(_NOT_A_MATRIX))
@pytest.mark.parametrize("arg", sorted(_matrix_arguments()))
def test_every_matrix_argument_is_one_checked_matrix(arg, fault):
    # one rule for every matrix argument: an array of numbers, 2-D, at
    # least one row and one column, every entry finite; a 1-D array is not
    # read as a row.  Each fault is a ValidationError that names the
    # argument, never a result or an error from inside numpy
    good, name, call = _matrix_arguments()[arg]
    call(good)
    with pytest.raises(ValidationError, match=re.escape(name)):
        call(_NOT_A_MATRIX[fault](good))


def _array_arguments(tmp_path):
    """{id: (a valid array, the name the check gives it, call(array))} for
    every array argument of the public surface that is not a matrix
    argument; each call is valid with the valid array."""
    r = np.random.default_rng(5)
    y = r.uniform(0.1, 1.0, (6, 8))
    stack = FactorStack(r.uniform(0.1, 1.0, (6, 2)), (sample_dirichlet(np.ones(2), 3, r),), 0.1)
    b, betas = compose_expanded(stack), np.ones((3, 8))
    return {
        "update_beta_data": (y, "update_beta's data", lambda x: update_beta(x, b, betas, 0.1, 1)),
        "update_beta_endmembers": (
            b, "update_beta's endmembers", lambda x: update_beta(y, x, betas, 0.1, 1),
        ),
        "update_beta_concentrations": (
            betas, "update_beta's concentrations", lambda x: update_beta(y, b, x, 0.1, 1),
        ),
        "dirichlet_entropy": (betas, "dirichlet_entropy", dirichlet_entropy),
        "sample_dirichlet": (np.ones(3), "sample_dirichlet", lambda x: sample_dirichlet(x, 2, 0)),
        "gen_variants": (y[:, 0], "base spectrum", lambda x: gen_variants(x, 2)),
        "write_raw64": (
            y, "write_raw64's matrix", lambda x: write_raw64(tmp_path / "m.raw64", x),
        ),
        "write_csv_matrix": (
            y, "write_csv_matrix's matrix", lambda x: write_csv_matrix(tmp_path / "m.csv", x),
        ),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], "abc"], ids=["ragged", "text"])
@pytest.mark.parametrize("arg", sorted(_array_arguments(None)))
def test_every_array_argument_is_one_checked_conversion(arg, bad, tmp_path):
    # the arguments outside the matrix rule go through the same one
    # conversion: what is not an array of numbers is a ValidationError
    # that names the argument, never an error from inside numpy
    good, name, call = _array_arguments(tmp_path)[arg]
    call(good)
    with pytest.raises(ValidationError, match=re.escape(name)):
        call(bad)


def _bounded_arguments():
    """name -> (least value, words of the fault below it, call(value)):
    every bound the range test enforces, each probed through one entry."""
    y, stack, betas = random_instance(np.random.default_rng(3))
    b = expanded_of(stack)

    def mixer(v):
        return FactorStack(np.ones((3, 2)), (np.array([[1.0, 0.5], [v, 0.5]]),))

    return {
        "core basis": (0.0, "negative values", lambda v: FactorStack(np.array([[1.0, v]]))),
        "mixing layer 1": (0.0, "negative values", mixer),
        "base spectrum": (0.0, "negative values", lambda v: gen_variants(np.array([1.0, v]), 2)),
        "Dirichlet concentration": (
            BETA_FLOOR, "values below floor 1e-06", lambda v: DirichletParam(np.full((2, 2), v)),
        ),
        "noise variance": (
            NOISE_VAR_FLOOR, "values below floor 1e-12",
            lambda v: FactorStack(np.ones((2, 2)), noise_var=v),
        ),
        "update_beta's noise variance": (
            NOISE_VAR_FLOOR, "values below floor 1e-12", lambda v: update_beta(y, b, betas, v, 1),
        ),
        "sample_dirichlet": (
            5e-324, "non-positive values", lambda v: sample_dirichlet(np.array([1.0, v]), 2, 0),
        ),
        "dirichlet_entropy": (
            5e-324, "non-positive values", lambda v: dirichlet_entropy(np.array([[1.0], [v]])),
        ),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("arg", sorted(_bounded_arguments()))
def test_range_test_boundary(arg):
    # one float below each bound is refused with the argument and the bound
    # named; the bound itself is accepted, and so is -0.0 where it is 0
    least, fault, call = _bounded_arguments()[arg]
    with pytest.raises(ValidationError, match=re.escape(f"{arg}: {fault}")):
        call(np.nextafter(least, -np.inf))
    if arg == "dirichlet_entropy":
        # at 5e-324 psi overflows, which the result check refuses
        with pytest.raises(ValidationError, match=re.escape("dirichlet_entropy (overflow)")):
            call(least)
        return
    for value in [least, -0.0] if least == 0.0 else [least]:
        call(value)


class TestFactorStack:
    def test_rejects_negative_basis(self):
        with pytest.raises(ValidationError, match="negative"):
            FactorStack(basis=-np.ones((3, 2)))

    def test_chain_error_names_layer(self, rng):
        s1 = sample_dirichlet(np.ones(2), 4, rng)
        s_bad = sample_dirichlet(np.ones(3), 5, rng)
        with pytest.raises(ValidationError, match="mixing layer 2"):
            FactorStack(basis=np.ones((3, 2)), mixers=(s1, s_bad))

    def test_columns_must_sum_to_one(self):
        bad = np.full((2, 2), 0.6)
        with pytest.raises(ValidationError, match="sums to"):
            FactorStack(basis=np.ones((3, 2)), mixers=(bad,))

    def test_noise_floor(self):
        with pytest.raises(ValidationError, match="floor"):
            FactorStack(basis=np.ones((2, 2)), noise_var=0.0)

    def test_rejects_non_finite_mixer(self, rng):
        # NaN passes both the sign test and the column-sum test
        s1 = sample_dirichlet(np.ones(2), 2, rng)
        s_bad = np.array([[np.nan, 0.5], [np.nan, 0.5]])
        with pytest.raises(ValidationError, match="mixing layer 2: non-finite"):
            FactorStack(basis=np.ones((4, 2)), mixers=(s1, s_bad), noise_var=1e-3)

    @pytest.mark.parametrize("noise_var", [np.inf, np.nan])
    def test_rejects_non_finite_noise(self, noise_var):
        with pytest.raises(ValidationError, match="noise variance"):
            FactorStack(basis=np.ones((4, 2)), noise_var=noise_var)

    @pytest.mark.parametrize(
        "noise_var", [None, "abc", np.array([0.1]), [0.1, 0.2]], ids=repr
    )
    def test_rejects_non_scalar_noise(self, noise_var):
        # one number or a ValidationError, never a TypeError from numpy
        with pytest.raises(ValidationError, match="noise variance"):
            FactorStack(basis=np.ones((4, 2)), noise_var=noise_var)

    @pytest.mark.parametrize("noise_var", ["0.1", np.float32(0.1), np.array(0.1)], ids=repr)
    def test_noise_is_held_as_a_float(self, noise_var):
        got = FactorStack(basis=np.ones((4, 2)), noise_var=noise_var).noise_var
        assert type(got) is float and got == float(noise_var)

    def test_replace_revalidates(self, rng):
        _, stack, _ = random_instance(rng)
        with pytest.raises(ValidationError):
            stack.replace(noise_var=-1.0)


class TestCompose:
    def test_no_mixers_returns_basis(self):
        stack = FactorStack(basis=np.arange(6.0).reshape(3, 2))
        assert np.array_equal(compose_expanded(stack), stack.basis)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_returns_a_fresh_array(self, rng, depth):
        # a plain float64 array, never a view of the stack's frozen basis
        _, stack, _ = random_instance(rng, depth=depth)
        got = compose_expanded(stack)
        assert type(got) is np.ndarray and got.dtype == np.float64
        cols = stack.mixers[-1].shape[1] if stack.mixers else stack.basis.shape[1]
        assert got.shape == (stack.basis.shape[0], cols)
        assert got.flags.writeable and not np.shares_memory(got, stack.basis)

    def test_matches_plain_product(self, rng):
        # B = A S_1 ... S_L of the model (D1)
        for _ in range(10):
            _, stack, _ = random_instance(rng, depth=3)
            got = compose_expanded(stack)
            np.testing.assert_allclose(got, expanded_of(stack), rtol=1e-13)

    def test_expanded_is_nonnegative(self, rng):
        for _ in range(10):
            _, stack, _ = random_instance(rng, depth=2)
            assert np.all(compose_expanded(stack) >= 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_chain_raises(self):
        # a mixer column may sum to 1 + 5e-10, inside COLUMN_SUM_TOL, which
        # carries a basis at the float64 maximum past it
        big = np.full((2, 1), np.finfo(np.float64).max)
        stack = FactorStack(big, (np.array([[1.0 + 5e-10]]),))
        with pytest.raises(ValidationError, match="compose_expanded .overflow.: non-finite"):
            compose_expanded(stack)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_column_sums_carry_through_the_chain(self, seed):
        # each expanded column is a convex combination of basis columns,
        # so equal basis column sums are inherited exactly
        r = np.random.default_rng(seed)
        m, k1, k2 = 5, 3, 6
        basis = r.uniform(0.0, 1.0, (m, k1))
        basis /= basis.sum(axis=0)
        stack = FactorStack(basis=basis, mixers=(sample_dirichlet(np.ones(k1), k2, r),))
        sums = compose_expanded(stack).sum(axis=0)
        np.testing.assert_allclose(sums, np.ones(k2), atol=1e-12)
