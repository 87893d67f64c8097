"""Multilayer simplex-structured matrix factorization for hyperspectral
unmixing under endmember variability, fitted by variational inference."""

from .model import (
    FactorStack,
    PixelMatrix,
    ValidationError,
    compose_expanded,
    validate_dims,
)
from .simplex import (
    BETA_FLOOR,
    DirichletParam,
    dirichlet_entropy,
    dirichlet_mean,
    dirichlet_second_moment,
    sample_dirichlet,
)
from .initialization import InitResult, init_all, scls, vca
from .solver import (
    FitConfig,
    FitResult,
    FitTrace,
    elbo_terms,
    fit,
    grad_beta,
    grad_factors,
    update_beta,
    update_factors,
    update_sigma2,
)
from .synth import (
    SynthBundle,
    assemble_ground_truth,
    builtin_bases,
    gen_dataset,
    gen_variants,
)
from .metrics import AlignmentResult, aligned_mse, hungarian, singular_spectrum, snr_db

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "BETA_FLOOR",
    "DirichletParam",
    "FactorStack",
    "FitConfig",
    "FitResult",
    "FitTrace",
    "InitResult",
    "PixelMatrix",
    "SynthBundle",
    "ValidationError",
    "aligned_mse",
    "assemble_ground_truth",
    "builtin_bases",
    "compose_expanded",
    "dirichlet_entropy",
    "dirichlet_mean",
    "dirichlet_second_moment",
    "elbo_terms",
    "fit",
    "gen_dataset",
    "gen_variants",
    "grad_beta",
    "grad_factors",
    "hungarian",
    "init_all",
    "sample_dirichlet",
    "scls",
    "singular_spectrum",
    "snr_db",
    "update_beta",
    "update_factors",
    "update_sigma2",
    "validate_dims",
    "vca",
]
