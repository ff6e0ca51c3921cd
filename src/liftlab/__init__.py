"""Lifts of projective congruence groups: counting, presentations, witnesses."""

from .matrices import (
    IDENTITY,
    MINUS_IDENTITY,
    S,
    T,
    FactorizationProfile,
    IntegerMatrix,
    ResidueMatrix,
    factorize,
    multiply,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "IDENTITY",
    "MINUS_IDENTITY",
    "S",
    "T",
    "FactorizationProfile",
    "IntegerMatrix",
    "ResidueMatrix",
    "factorize",
    "multiply",
    "reduce",
    "__version__",
]
