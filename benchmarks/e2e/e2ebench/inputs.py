"""Seeded workload inputs: the same seed always yields the same records.

The program under test only ever sees what these functions return —
datasets, CSV files and record batches.  The underlying *world* (cities,
venues, who moves where and when) is a fixture of the workload, generated
from :data:`WORLD_SEED`; the ``seed`` argument draws what the two services
observed of it — the entity partition, the per-record inclusion and the
anonymised ids (``sample_linkage_pair``) — through
``np.random.default_rng``.  Regenerating the whole world per seed moved
the amount of work by ~10 % between seeds (cab bin comparisons, LSH
candidate pairs), which would drown the run-to-run differences the
benchmark exists to show; resampling one world moves it by 1-3 %.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.data import LocationDataset, Record, sample_linkage_pair
from repro.data.sampling import LinkagePair
from repro.data.synth import default_cab_world, default_sm_world

__all__ = [
    "DAY",
    "SIDES",
    "WORLD_SEED",
    "cab_pair",
    "churn_pair",
    "entity_batches",
    "sm_pair",
    "sorted_streams",
    "split_at",
    "time_span",
]

DAY = 86_400.0
SIDES = ("left", "right")
WORLD_SEED = 7

Batches = Dict[str, List[Record]]


def sm_pair(num_users: int, seed: int, days: float = 8.0) -> LinkagePair:
    """Sparse check-in world, the paper's sampling protocol (0.5 / 0.5)."""
    world = default_sm_world(
        num_users=num_users, duration_days=days, seed=WORLD_SEED
    ).generate()
    return sample_linkage_pair(world, 0.5, 0.5, rng=seed)


def cab_pair(num_taxis: int, seed: int) -> LinkagePair:
    """Dense single-city taxi world, same sampling protocol."""
    world = default_cab_world(num_taxis=num_taxis, seed=WORLD_SEED).generate()
    return sample_linkage_pair(world, 0.5, 0.5, rng=seed)


def churn_pair(
    num_users: int, seed: int, days: float, active_days: float
) -> LinkagePair:
    """Check-in world whose entities arrive and go quiet.

    Every world entity is active for ``active_days`` only; its span start
    is drawn from a seeded RNG *before* the two sides are sampled, so
    both sides of a true pair share it.
    """
    base = default_sm_world(
        num_users=num_users, duration_days=active_days, seed=WORLD_SEED
    ).generate()
    rng = np.random.default_rng(WORLD_SEED)
    starts = rng.uniform(0.0, (days - active_days) * DAY, base.num_entities)
    shifted = {}
    for entity, start in zip(base.entities, starts):
        timestamps, lats, lngs = base.columns(entity)
        shifted[entity] = (timestamps + start, lats, lngs)
    world = LocationDataset.from_arrays(base.entities, shifted, "churn_world")
    return sample_linkage_pair(world, 0.5, 0.5, rng=seed)


def time_span(pair: LinkagePair) -> Tuple[float, float]:
    """Earliest and latest record timestamp across both sides."""
    left, right = pair.left.time_range(), pair.right.time_range()
    return min(left[0], right[0]), max(left[1], right[1])


def split_at(
    pair: LinkagePair, cut: float
) -> Tuple[Batches, Dict[str, Dict[str, List[Record]]]]:
    """Records up to ``cut`` per side, and each entity's later records."""
    early: Batches = {side: [] for side in SIDES}
    late: Dict[str, Dict[str, List[Record]]] = {side: {} for side in SIDES}
    for side, dataset in zip(SIDES, (pair.left, pair.right)):
        for entity in dataset.entities:
            for record in dataset.records_of(entity):
                if record.timestamp <= cut:
                    early[side].append(record)
                else:
                    late[side].setdefault(entity, []).append(record)
    return early, late


def entity_batches(
    late: Dict[str, Dict[str, List[Record]]], per_round: int
) -> List[Batches]:
    """Rounds delivering the held-out records of ``per_round`` entities
    per side (entities in sorted-id order, so rounds are seed-stable)."""
    order = {side: sorted(late[side]) for side in SIDES}
    rounds = min(len(order["left"]), len(order["right"])) // per_round
    return [
        {
            side: [
                record
                for entity in order[side][k * per_round : (k + 1) * per_round]
                for record in late[side][entity]
            ]
            for side in SIDES
        }
        for k in range(rounds)
    ]


def sorted_streams(pair: LinkagePair) -> Batches:
    """Each side's records in event-time order."""
    return {
        side: sorted(dataset.records(), key=lambda record: record.timestamp)
        for side, dataset in zip(SIDES, (pair.left, pair.right))
    }
