"""One-pair spellings of the score cache's batch API, and its capture
read back by value — shared by the tests that hand-build cache content.

``ScoreCache`` has one door, :meth:`~repro.core.score_cache.ScoreCache.lookup_batch`
/ :meth:`~repro.core.score_cache.ScoreCache.store_batch` over pair-code
arrays; these helpers code one ``(left id, right id)`` pair and call it.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import BatchScoreResult
from repro.core.score_cache import ScoreCache


def store(cache, space, left, right, u_version, v_version, raw,
          bin_comparisons=1, common_windows=1, alibi_bin_pairs=0):
    """Store one pair's raw total and counters under these versions."""
    cache.store_batch(
        space, cache.entities.pair_codes([(left, right)]),
        np.array([u_version]), np.array([v_version]), np.array([raw], dtype=float),
        np.array([bin_comparisons]), np.array([common_windows]),
        np.array([alibi_bin_pairs]),
    )


def lookup(cache, space, left, right, u_version, v_version):
    """One pair looked up under these versions: ``None`` on a miss, else
    its :class:`~repro.core.kernels.BatchScoreResult` of scalars
    (``scores`` is the raw total)."""
    hit, batch = cache.lookup_batch(
        space, cache.entities.pair_codes([(left, right)]),
        np.array([u_version]), np.array([v_version]),
    )
    if not hit[0]:
        return None
    return BatchScoreResult(*(column[0].item() for column in batch))


def capture_rows(capture):
    """A :meth:`~repro.core.score_cache.ScoreCache.checkpoint` capture by
    value: ``{(space, left id, right id): (value per column)}``, the
    columns in ``ScoreCache._COLUMNS`` order (row order and codes are
    allocation detail)."""
    space, left, right = capture["owners"]
    keys = zip(
        [capture["spaces"][code] for code in space.tolist()],
        capture["left_ids"][left].tolist(),
        capture["right_ids"][right].tolist(),
    )
    return dict(zip(keys, zip(*(capture[name].tolist() for name in ScoreCache._COLUMNS))))
