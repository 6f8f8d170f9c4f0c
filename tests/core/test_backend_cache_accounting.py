"""Both scoring backends do the same cache work.

``SimilarityEngine.raw_batch`` is the one route into a ``ScoreCache``
under ``backend="python"`` and ``backend="numpy"`` alike: one
``lookup_batch``, the misses to the backend's scorer, one
``store_batch``.  So over the same calls — a batch that names a pair
twice, two scoring spaces sharing the cache, a history that grows under
a cached row, single-pair ``score()`` calls — the two backends count the
same hits and misses, leave the same rows, and score within the parity
suite's 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from cache_calls import capture_rows
from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.core.similarity import SimilarityConfig, SimilarityEngine
from repro.temporal import Windowing

LEVEL = 12
WINDOWING = Windowing(0.0, 900.0)
PAIRS = [("l0", "r0"), ("l1", "r1"), ("l0", "r0"), ("l2", "r0"), ("l1", "r2")]


def _histories(prefix, rng):
    histories = {}
    for index in range(3):
        records = int(rng.integers(10, 30))
        entity = f"{prefix}{index}"
        histories[entity] = MobilityHistory.from_columns(
            entity,
            rng.uniform(0.0, 900.0 * 20, records),
            37.7 + rng.normal(0.0, 0.05, records),
            -122.4 + rng.normal(0.0, 0.05, records),
            WINDOWING,
            LEVEL,
        )
    return histories


def _run(backend):
    """Every score, the cache's counters after each call, and its capture."""
    rng = np.random.default_rng(5)
    left, right = _histories("l", rng), _histories("r", rng)
    cache = ScoreCache()
    # Two scoring spaces: the MFN pass changes the raw total.
    configs = [
        SimilarityConfig(backend=backend),
        SimilarityConfig(backend=backend, use_mfn=False),
    ]

    def engines():
        corpora = (
            HistoryCorpus(left, LEVEL, cache_token="left"),
            HistoryCorpus(right, LEVEL, cache_token="right"),
        )
        return [SimilarityEngine(*corpora, config, score_cache=cache) for config in configs]

    scores, counters = [], []
    for round_index in range(3):
        if round_index == 2:
            # A stale version: l0's rows no longer hold it.
            left["l0"].extend(np.array([5_000.0]), np.array([37.71]), np.array([-122.41]))
        for engine in engines():
            scores.extend(engine.score_batch(PAIRS))
            scores.append(engine.score("l2", "r1"))
            counters.append((cache.hits, cache.misses, len(cache)))
    return scores, counters, cache.checkpoint()


def test_both_backends_count_the_same_cache_work():
    python_scores, python_counters, python_capture = _run("python")
    numpy_scores, numpy_counters, numpy_capture = _run("numpy")
    # The pair named twice in a batch is two misses the first time.
    assert python_counters[0] == (0, len(PAIRS) + 1, len(set(PAIRS)) + 1)
    assert python_counters == numpy_counters
    python_rows, numpy_rows = capture_rows(python_capture), capture_rows(numpy_capture)
    assert python_rows.keys() == numpy_rows.keys()
    for key, values in python_rows.items():
        other = numpy_rows[key]
        assert values[:2] == other[:2] and values[3:] == other[3:], key
        assert values[2] == pytest.approx(other[2], abs=1e-9), key
    np.testing.assert_allclose(python_scores, numpy_scores, rtol=0, atol=1e-9)
