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
from .initialization import InitResult, init_all, scls, vca
from .solver import (
    FitConfig,
    FitResult,
    FitTrace,
    fit,
    update_beta,
)
from .synth import (
    SynthBundle,
    assemble_ground_truth,
    builtin_bases,
    gen_dataset,
    gen_variants,
)
from .metrics import AlignmentResult, aligned_mse, singular_spectrum

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
