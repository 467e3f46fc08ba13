"""Exact classical engine for the quantum Schur transform on n qudits.

Everything is computed over the ring of rational linear combinations of
square roots of square-free integers, so equality tests (unitarity, round
trips, agreement with the d=2 entry-reading rule) are exact rather than
approximate.
"""

from schurweyl.amplitudes import (
    NotAnEdge,
    WrongDimension,
    down_transitions,
    pattern_amplitude_d2,
    up_transitions,
)
from schurweyl.branching import (
    SchurWeylTriplet,
    empty_triplet,
    validate_triplet,
)
from schurweyl.graph import SWYEdge, SWYGraph, SWYVertex, build
from schurweyl.radicals import Radical, radical_from_sqrt
from schurweyl.tableaux import (
    GTPattern,
    InvariantViolation,
    enumerate_gt,
    enumerate_paths,
    gt_to_weyl,
    parse_word,
    partitions,
    path_to_syt,
    weyl_to_gt,
    word_to_text,
)
from schurweyl.transform import (
    DEFAULT_SIZE_BOUND,
    ExactSparseMatrix,
    SizeBoundExceeded,
    decode,
    dimension_check,
    encode,
    schur_basis,
    schur_matrix,
    verify_unitary,
    words,
)

__all__ = [
    "DEFAULT_SIZE_BOUND",
    "ExactSparseMatrix",
    "GTPattern",
    "InvariantViolation",
    "NotAnEdge",
    "Radical",
    "SWYEdge",
    "SWYGraph",
    "SWYVertex",
    "SchurWeylTriplet",
    "SizeBoundExceeded",
    "WrongDimension",
    "build",
    "decode",
    "dimension_check",
    "down_transitions",
    "empty_triplet",
    "encode",
    "enumerate_gt",
    "enumerate_paths",
    "gt_to_weyl",
    "parse_word",
    "partitions",
    "path_to_syt",
    "pattern_amplitude_d2",
    "radical_from_sqrt",
    "schur_basis",
    "schur_matrix",
    "up_transitions",
    "validate_triplet",
    "verify_unitary",
    "weyl_to_gt",
    "word_to_text",
    "words",
]

__version__ = "0.1.0"
