"""Multilayer simplex-structured matrix factorization for hyperspectral
unmixing under endmember variability, fitted by variational inference."""

import importlib

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

# the engine imports scipy, so it loads on the first read of one of its
# names (PEP 562): building, scoring and plotting scenes never loads scipy
_ENGINE = {
    "FitConfig": "solver",
    "fit": "solver",
    "init_all": "initialization",
    "scls": "initialization",
    "update_beta": "solver",
    "vca": "initialization",
}


def __getattr__(name):
    """Import the engine and bind all six of its names here; a later read
    is then a plain attribute lookup."""
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for key, module in _ENGINE.items():
        globals()[key] = getattr(importlib.import_module(f"{__name__}.{module}"), key)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
