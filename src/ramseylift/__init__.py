"""ramseylift: parameter-word algebra, ordered-structure encodings and a
brute-force Ramsey arrow oracle at desk scale."""

from .errors import (
    BudgetError,
    DomainError,
    EmbeddingError,
    RamseyLiftError,
    SpectrumError,
    StructureError,
    VerificationError,
    WordError,
)
from .orders import BaseOrder
from .structures import (
    Ball,
    ConvUltrametricSpace,
    Embedding,
    LinOrderedGraph,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    balls,
    check_embedding,
    downsets,
    enumerate_embeddings,
    validate_structure,
)
from .words import Alphabet, ParameterWord, compose, enumerate_words, identity, parse, validate

__all__ = [
    "Alphabet",
    "Ball",
    "BaseOrder",
    "BudgetError",
    "ConvUltrametricSpace",
    "DomainError",
    "Embedding",
    "EmbeddingError",
    "LinOrderedGraph",
    "LinOrderedMetricSpace",
    "LinOrderedPoset",
    "ParameterWord",
    "RamseyLiftError",
    "SpectrumError",
    "StructureError",
    "VerificationError",
    "WordError",
    "balls",
    "check_embedding",
    "compose",
    "downsets",
    "enumerate_embeddings",
    "enumerate_words",
    "identity",
    "parse",
    "validate",
    "validate_structure",
]
