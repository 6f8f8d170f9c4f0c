"""Locality-sensitive hashing for mobility histories (Sec. 4).

The first application of LSH to mobility linkage: per-entity signatures of
*dominating grid cells* (:mod:`~repro.lsh.signature`), banded with the
Lambert-W band count (:mod:`~repro.lsh.banding`), hashed into a finite
bucket table (:mod:`~repro.lsh.index`).  Only co-bucketed cross-dataset
pairs reach the similarity engine, which is where the paper's two-to-four
orders of magnitude speed-up comes from.
"""

from .banding import (
    bands_for_threshold,
    collision_probability,
    implied_threshold,
    split_bands,
)
from .index import LshConfig, LshIndex, LshStats
from .signature import (
    SignatureSpec,
    signature_matrix,
    signature_similarity,
)

__all__ = [
    "LshConfig",
    "LshIndex",
    "LshStats",
    "SignatureSpec",
    "signature_matrix",
    "signature_similarity",
    "bands_for_threshold",
    "implied_threshold",
    "collision_probability",
    "split_bands",
]
