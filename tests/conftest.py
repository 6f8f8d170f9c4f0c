"""Shared fixtures: small synthetic worlds reused across test modules.

Session-scoped because world generation is the slowest part of the suite;
all tests treat these datasets as read-only.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.data import LocationDataset, Record, sample_linkage_pair
from repro.data.synth import default_cab_world, default_sm_world


@pytest.fixture(scope="session")
def cab_world() -> LocationDataset:
    """A small dense taxi world (~24 entities, 1 day)."""
    return default_cab_world(num_taxis=24, duration_days=1.0, seed=7).generate()


@pytest.fixture(scope="session")
def cab_pair(cab_world):
    """Default-parameter linkage pair over the cab world."""
    return sample_linkage_pair(
        cab_world, intersection_ratio=0.5, inclusion_probability=0.5, rng=7
    )


@pytest.fixture(scope="session")
def sm_world() -> LocationDataset:
    """A small sparse check-in world (~200 users)."""
    return default_sm_world(num_users=200, duration_days=8.0, seed=11).generate()


@pytest.fixture(scope="session")
def sm_pair(sm_world):
    """Default-parameter linkage pair over the check-in world."""
    return sample_linkage_pair(
        sm_world, intersection_ratio=0.5, inclusion_probability=0.5, rng=11
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def tiny_dataset() -> LocationDataset:
    """Four entities with hand-written records around San Francisco."""
    base = 1_600_000_000.0
    records = []
    coordinates = {
        "a": (37.7749, -122.4194),
        "b": (37.7850, -122.4100),
        "c": (37.7600, -122.4300),
        "d": (37.8000, -122.4000),
    }
    for entity, (lat, lng) in coordinates.items():
        for k in range(12):
            records.append(
                Record(entity, lat + 0.001 * (k % 3), lng - 0.001 * (k % 2), base + 600 * k)
            )
    return LocationDataset.from_records(records, "tiny")


class RelinkFailures:
    """Named points at which a ``StreamingLinker.relink()`` can be made to
    raise :attr:`Boom`, in pipeline order — shared by the rollback, chaos
    and model-based suites.  ``failures(point)`` is a context manager;
    not every relink reaches every point (no misses: nothing is stored;
    no right history to (re-)place: no right-side update)."""

    class Boom(RuntimeError):
        """The injected mid-relink failure."""

    points = ("after-retention", "mid-lsh", "after-store", "matching", "threshold")

    def __call__(self, point):
        from repro.core.corpus import HistoryCorpus
        from repro.core.score_cache import ScoreCache
        from repro.lsh.index import LshIndex
        from repro.pipeline.stages import MatchingStage, ThresholdStage

        def boom(*args, **kwargs):
            raise self.Boom(f"injected at {point}")

        def after(original):
            # The call goes through, then the failure: its writes are
            # what has to be undone.
            def wrapper(*args, **kwargs):
                original(*args, **kwargs)
                boom()

            return wrapper

        def before_right(original):
            # After the left side's bucket matrix is placed, before the
            # right one's: the index is half-updated.
            def wrapper(index, codes, signatures, side):
                if side == "right":
                    boom()
                return original(index, codes, signatures, side)

            return wrapper

        target, name, replacement = {
            "after-retention": (HistoryCorpus, "refresh", boom),
            "mid-lsh": (
                LshIndex, "add_signatures", before_right(LshIndex.add_signatures)
            ),
            "after-store": (
                ScoreCache, "store_batch", after(ScoreCache.store_batch)
            ),
            "matching": (MatchingStage, "run", boom),
            "threshold": (ThresholdStage, "run", boom),
        }[point]
        return mock.patch.object(target, name, replacement)


@pytest.fixture()
def relink_failures() -> RelinkFailures:
    """Failure injection for the relink transaction (see
    :class:`RelinkFailures`)."""
    return RelinkFailures()
