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
    sample_dirichlet,
)
from .initialization import init_all, scls, vca
from .solver import (
    FitConfig,
    fit,
    update_beta,
)
from .synth import (
    assemble_ground_truth,
    builtin_bases,
    gen_dataset,
    gen_variants,
)
from .metrics import aligned_mse, singular_spectrum

__version__ = "0.1.0"

__all__ = [
    "BETA_FLOOR",
    "DirichletParam",
    "FactorStack",
    "FitConfig",
    "PixelMatrix",
    "ValidationError",
    "aligned_mse",
    "assemble_ground_truth",
    "builtin_bases",
    "compose_expanded",
    "dirichlet_entropy",
    "fit",
    "gen_dataset",
    "gen_variants",
    "init_all",
    "sample_dirichlet",
    "scls",
    "singular_spectrum",
    "update_beta",
    "validate_dims",
    "vca",
]
