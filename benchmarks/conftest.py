"""Shared workloads for the figure benchmarks.

Two synthetic worlds stand in for the paper's corpora (see
docs/ARCHITECTURE.md, "Paper figures" — Substitutions):

* ``cab`` — dense single-city taxi fleet (40 taxis, 1.5 days, ~860
  records/taxi at full inclusion) standing in for the 536-taxi SF trace;
* ``sm`` — sparse global check-in world (800 users, ~28 events each)
  standing in for the Twitter/Foursquare corpus.

Both are session-scoped: the worlds are generated once, every bench samples
observation pairs from them with the paper's protocol.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data import sample_linkage_pair
from repro.data.synth import default_cab_world, default_sm_world

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the figure series are written into."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def cab_world():
    """Dense taxi world (Cab stand-in)."""
    return default_cab_world(
        num_taxis=40, duration_days=1.5, sample_period_seconds=150, seed=7
    ).generate()


@pytest.fixture(scope="session")
def cab_pair(cab_world):
    """Default-parameter Cab linkage pair (ratio 0.5, inclusion 0.5)."""
    return sample_linkage_pair(
        cab_world, intersection_ratio=0.5, inclusion_probability=0.5, rng=7
    )


@pytest.fixture(scope="session")
def sm_world():
    """Sparse check-in world (SM stand-in)."""
    return default_sm_world(num_users=800, duration_days=10.0, seed=11).generate()


@pytest.fixture(scope="session")
def sm_pair(sm_world):
    """Default-parameter SM linkage pair."""
    return sample_linkage_pair(
        sm_world, intersection_ratio=0.5, inclusion_probability=0.5, rng=11
    )
