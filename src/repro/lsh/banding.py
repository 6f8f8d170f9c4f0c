"""The banding technique and its parameter arithmetic (Sec. 4).

A signature of length ``s`` is split into ``b`` bands of ``r = s/b`` rows;
each band is hashed whole.  Two signatures with similarity ``t`` share at
least one identical band with probability ``1 - (1 - t^r)^b`` — an S-curve
whose steepest rise sits near ``t ~ (1/b)^(1/r)``.  Solving
``t = (1/b)^(b/s)`` for ``b`` gives the paper's closed form

``b = exp(W(-s * ln t))``

with ``W`` the Lambert W function — the root of ``b ln b = -s ln t``,
which :func:`bands_for_threshold` finds by Newton's method.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "bands_for_threshold",
    "implied_threshold",
    "collision_probability",
    "split_bands",
    "band_boundaries",
    "band_bucket_ids",
]

Band = Tuple[Tuple[int, int], ...]

# FNV-1a offset basis / prime — a deterministic, process-independent band
# hash (Python's tuple hash was already deterministic for ints, but cannot
# be evaluated vectorized; FNV-1a mixes the same (slot index, cell id)
# stream with four uint64 ops per slot across a whole signature batch).
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# Murmur3 fmix64 constants for the final avalanche.  FNV's multiply only
# carries entropy towards the high bits, and cell ids at coarse levels keep
# their low bits constant (the level sentinel), so without a downward fold
# every signature would land in the same bucket under power-of-two bucket
# counts.
_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT_33 = np.uint64(33)


def _avalanche(digest: np.ndarray) -> np.ndarray:
    """Murmur3 fmix64: spread every input bit across the whole word."""
    digest = digest ^ (digest >> _SHIFT_33)
    digest = digest * _MIX_1
    digest = digest ^ (digest >> _SHIFT_33)
    digest = digest * _MIX_2
    return digest ^ (digest >> _SHIFT_33)


def bands_for_threshold(signature_length: int, threshold: float) -> int:
    """Number of bands targeting candidate threshold ``t``.

    The root of ``b ln b = -s ln t`` (``t = (1/b)^(b/s)`` rearranged; in
    closed form ``exp(W(-s ln t))``, ``W`` the Lambert W function),
    clamped to ``[1, signature_length]`` and rounded to the nearest
    integer.  Newton's method, not ``scipy.special.lambertw``: importing
    scipy.special for this one scalar costs every LSH run ~0.3 s and
    ~28 MB, and the two agree to 1.3e-15 relative (same band count on
    1.2 M ``(s, t)`` combinations, PR 21).
    """
    if signature_length < 1:
        raise ValueError("signature length must be positive")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    target = -signature_length * math.log(threshold)
    # b ln b is convex and increasing on b >= 1, and target + 1 lies to
    # the right of the root, so the iterates descend onto it
    # monotonically (5 steps to full precision; the cap is a formality).
    bands = target + 1.0
    for _ in range(64):
        log_bands = math.log(bands)
        step = (bands * log_bands - target) / (log_bands + 1.0)
        bands -= step
        if abs(step) <= 1e-14 * bands:
            break
    return max(1, min(signature_length, int(round(bands))))


def implied_threshold(signature_length: int, num_bands: int) -> float:
    """The approximate threshold ``(1/b)^(1/r)`` realised by a banding."""
    if num_bands < 1 or signature_length < num_bands:
        raise ValueError("need 1 <= bands <= signature length")
    rows = signature_length / num_bands
    return (1.0 / num_bands) ** (1.0 / rows)


def collision_probability(
    similarity: float, signature_length: int, num_bands: int
) -> float:
    """``1 - (1 - t^r)^b`` — probability of sharing at least one band."""
    if not 0.0 <= similarity <= 1.0:
        raise ValueError("similarity must be in [0, 1]")
    if num_bands < 1 or signature_length < num_bands:
        raise ValueError("need 1 <= bands <= signature length")
    rows = signature_length / num_bands
    return 1.0 - (1.0 - similarity**rows) ** num_bands


def band_boundaries(signature_length: int, num_bands: int) -> List[Tuple[int, int]]:
    """The ``[start, end)`` slot range of every band.

    Single source of truth shared by :func:`split_bands` (scalar view) and
    :func:`band_bucket_ids` (vectorized hashing): the first ``length %
    num_bands`` bands get one extra slot.
    """
    if num_bands < 1:
        raise ValueError("need at least one band")
    if num_bands > signature_length:
        raise ValueError(
            f"cannot split {signature_length} slots into {num_bands} bands"
        )
    base = signature_length // num_bands
    remainder = signature_length % num_bands
    boundaries: List[Tuple[int, int]] = []
    position = 0
    for band_index in range(num_bands):
        size = base + (1 if band_index < remainder else 0)
        boundaries.append((position, position + size))
        position += size
    return boundaries


def band_bucket_ids(
    signatures: np.ndarray, num_bands: int, num_buckets: int
) -> np.ndarray:
    """Bucket ids of every band of every signature, in one numpy pass.

    ``signatures`` is an ``(N, length)`` uint64 signature matrix, as
    :func:`repro.lsh.signature.signature_matrix` returns it (0 =
    placeholder).
    Returns an ``(N, num_bands)`` int64 array of bucket ids in
    ``[0, num_buckets)``, with -1 marking bands whose slots are all
    placeholders (never hashed — otherwise every silent entity would
    collide with every other).

    Each band hashes the stream ``band_index, (slot_index, cell id)...``
    over its non-placeholder slots with FNV-1a, mirroring the structural
    alignment rule of :func:`split_bands`: the *same* query windows must
    agree for two bands to collide.
    """
    if signatures.ndim != 2:
        raise ValueError("signatures must be a 2-D (N, length) array")
    count, length = signatures.shape
    buckets = np.full((count, num_bands), -1, dtype=np.int64)
    if not count:
        return buckets
    valid = signatures != 0
    modulus = np.uint64(num_buckets)
    for band_index, (start, end) in enumerate(band_boundaries(length, num_bands)):
        digest = np.full(count, _FNV_OFFSET, dtype=np.uint64)
        digest = (digest ^ np.uint64(band_index)) * _FNV_PRIME
        for slot in range(start, end):
            mixed = (digest ^ np.uint64(slot)) * _FNV_PRIME
            mixed = (mixed ^ signatures[:, slot]) * _FNV_PRIME
            digest = np.where(valid[:, slot], mixed, digest)
        hashed = valid[:, start:end].any(axis=1)
        buckets[hashed, band_index] = (
            _avalanche(digest[hashed]) % modulus
        ).astype(np.int64)
    return buckets


def split_bands(
    signature: Sequence[Optional[int]], num_bands: int
) -> List[Optional[Band]]:
    """Split a signature into hashable bands.

    Slots are annotated with their index before placeholders are dropped,
    so a match requires the *same* query windows to agree (omitting
    placeholders must not let unrelated slots align).  A band whose slots
    are all placeholders yields ``None`` — it is never hashed, otherwise
    every silent entity would collide with every other.
    """
    bands: List[Optional[Band]] = []
    for start, end in band_boundaries(len(signature), num_bands):
        cells = tuple(
            (slot_index, signature[slot_index])
            for slot_index in range(start, end)
            if signature[slot_index] is not None
        )
        bands.append(cells if cells else None)
    return bands
