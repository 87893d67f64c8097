"""Multilayer simplex-structured matrix factorization for hyperspectral
unmixing under endmember variability, fitted by variational inference."""

import importlib

from .model import FactorStack, ValidationError, compose_expanded
from .simplex import DirichletParam
from .synth import assemble_ground_truth, builtin_bases, gen_dataset
from .metrics import aligned_mse, singular_spectrum

__version__ = "0.1.0"

__all__ = [
    "DirichletParam",
    "FactorStack",
    "FitConfig",
    "ValidationError",
    "aligned_mse",
    "assemble_ground_truth",
    "builtin_bases",
    "compose_expanded",
    "fit",
    "gen_dataset",
    "init_all",
    "singular_spectrum",
    "update_beta",
    "vca",
]

# the engine imports scipy, so it loads on the first read of one of its
# names (PEP 562): building, scoring and plotting scenes never loads scipy
_ENGINE = {
    "FitConfig": "solver",
    "fit": "solver",
    "init_all": "initialization",
    "update_beta": "solver",
    "vca": "initialization",
}


def __getattr__(name):
    """Import the engine and bind all five of its names here; a later read
    is then a plain attribute lookup."""
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for key, module in _ENGINE.items():
        globals()[key] = getattr(importlib.import_module(f"{__name__}.{module}"), key)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
