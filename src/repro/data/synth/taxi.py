"""Synthetic taxi-fleet traces (the Cab-dataset stand-in).

The paper's first corpus is the San Francisco cab trace: ~530 taxis sampled
continuously for 24 days, ~10,700 records per entity after sampling.  The
trace itself is not redistributable, so :class:`TaxiWorld` generates traces
with the properties the Cab experiments exercise:

* **dense, regular sampling** — a GPS ping every 1-3 minutes while moving;
* **bounded speed** — movement follows great-circle legs between venues at
  a configurable speed, so "same window but far apart" genuinely implies a
  different entity (the alibi premise of Eq. 1);
* **spatial skew** — legs end at Zipf-popular venues in Gaussian districts,
  producing the hot dominating cells that stress the LSH layer (Sec. 5.3:
  "the Cab dataset is spatially too dense").

Each taxi alternates driving legs with idle dwells at its destination, with
GPS noise added to every emitted fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...geo import LatLng
from ..records import LocationDataset
from .city import CityModel

__all__ = ["TaxiWorld"]


@dataclass(frozen=True)
class TaxiWorld:
    """Generator of a dense one-city taxi corpus.

    Parameters mirror the knobs the Cab experiments vary.  ``generate``
    returns the *world* dataset (ground-truth traces); experiments derive
    observed datasets from it via :func:`repro.data.sampling.sample_linkage_pair`.
    """

    city: CityModel
    num_taxis: int = 60
    start_time: float = 1_200_000_000.0
    duration_seconds: float = 2 * 86_400.0
    sample_period_seconds: float = 120.0
    min_speed_mps: float = 4.0
    max_speed_mps: float = 14.0
    dwell_seconds_mean: float = 420.0
    gps_noise_meters: float = 15.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_taxis < 1:
            raise ValueError("need at least one taxi")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if not 0 < self.min_speed_mps <= self.max_speed_mps:
            raise ValueError("speed range must satisfy 0 < min <= max")
        if self.sample_period_seconds <= 0:
            raise ValueError("sample period must be positive")

    def generate(
        self,
        name: str = "taxi_world",
        rng: Optional[np.random.Generator] = None,
    ) -> LocationDataset:
        """Generate the full-fidelity world dataset.

        ``rng`` defaults to ``default_rng(self.seed)`` — the same seed
        always produces a byte-identical dataset.  Passing an explicit
        :class:`numpy.random.Generator` takes over the whole stream
        (useful for scenario generators that derive several correlated
        worlds from one seed).
        """
        if rng is None:
            rng = np.random.default_rng(self.seed)
        per_entity: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        entity_ids: List[str] = []
        for taxi_index in range(self.num_taxis):
            entity_id = f"taxi{taxi_index:04d}"
            entity_ids.append(entity_id)
            per_entity[entity_id] = self._generate_trace(rng)
        return LocationDataset.from_arrays(entity_ids, per_entity, name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _generate_trace(
        self, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Simulate one taxi: venue-to-venue legs with dwells."""
        end_time = self.start_time + self.duration_seconds
        lat_noise = self.gps_noise_meters / 111_320.0

        position = self.city.venue_latlng(int(self.city.sample_venues(1, rng)[0]))
        clock = self.start_time
        times: List[float] = []
        lats: List[float] = []
        lngs: List[float] = []

        while clock < end_time:
            destination = self.city.venue_latlng(
                int(self.city.sample_venues(1, rng)[0])
            )
            distance = position.distance_meters(destination)
            speed = rng.uniform(self.min_speed_mps, self.max_speed_mps)
            travel_seconds = distance / speed if distance > 0 else 0.0

            # Emit fixes along the leg at the sampling period (with jitter).
            leg_samples = int(travel_seconds // self.sample_period_seconds)
            for k in range(1, leg_samples + 1):
                t = clock + k * self.sample_period_seconds
                if t >= end_time:
                    break
                fraction = (t - clock) / travel_seconds
                fix = position.interpolate(destination, fraction)
                times.append(t + rng.uniform(-5.0, 5.0))
                lats.append(fix.lat_degrees + rng.normal(0.0, lat_noise))
                lngs.append(fix.lng_degrees + rng.normal(0.0, lat_noise))
            clock += travel_seconds
            position = destination

            # Dwell at the venue, emitting stationary fixes.
            dwell = rng.exponential(self.dwell_seconds_mean)
            dwell_samples = int(dwell // self.sample_period_seconds)
            for k in range(1, dwell_samples + 1):
                t = clock + k * self.sample_period_seconds
                if t >= end_time:
                    break
                times.append(t + rng.uniform(-5.0, 5.0))
                lats.append(position.lat_degrees + rng.normal(0.0, lat_noise))
                lngs.append(position.lng_degrees + rng.normal(0.0, lat_noise))
            clock += dwell

        if not times:
            # Degenerate parameterisation (e.g. tiny duration): emit a single
            # fix so downstream filtering sees the entity rather than KeyError.
            times = [self.start_time]
            lats = [position.lat_degrees]
            lngs = [position.lng_degrees]
        return (
            np.asarray(times, dtype=np.float64),
            np.clip(np.asarray(lats, dtype=np.float64), -89.9, 89.9),
            np.asarray(lngs, dtype=np.float64),
        )

    def expected_records_per_taxi(self) -> float:
        """Back-of-envelope expected record count per taxi (used by tests to
        sanity-check generated densities)."""
        return self.duration_seconds / self.sample_period_seconds


def default_cab_world(
    num_taxis: int = 60,
    duration_days: float = 2.0,
    sample_period_seconds: float = 120.0,
    seed: int = 7,
    rng: Optional[np.random.Generator] = None,
) -> TaxiWorld:
    """Convenience factory: a San-Francisco-like city and fleet.

    Scale-down of the paper's 530-taxi / 24-day corpus that keeps density
    (records per entity per hour) comparable while fitting laptop budgets.
    """
    # Radius chosen so cross-city trips (~2 * radius) can exceed the runaway
    # distance at narrow windows (5-15 min at the paper's 2 km/min speed),
    # giving the alibi experiments signal — mirroring SF bay-area trip spans.
    city = CityModel.generate(
        "san_francisco",
        LatLng.from_degrees(37.7749, -122.4194),
        radius_meters=14_000.0,
        num_venues=400,
        num_districts=6,
        rng=rng or np.random.default_rng(seed ^ 0x5F5F),
    )
    return TaxiWorld(
        city=city,
        num_taxis=num_taxis,
        duration_seconds=duration_days * 86_400.0,
        sample_period_seconds=sample_period_seconds,
        seed=seed,
    )
