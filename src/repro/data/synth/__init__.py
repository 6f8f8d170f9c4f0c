"""Synthetic mobility worlds standing in for the paper's proprietary data.

See docs/ARCHITECTURE.md ("Paper figures" — Substitutions) for the
rationale.  In short:

* :func:`~repro.data.synth.taxi.default_cab_world` — dense single-city taxi
  fleet (Cab-dataset stand-in);
* :func:`~repro.data.synth.checkins.default_sm_world` — sparse global
  check-in world (SM-dataset stand-in);
* :class:`~repro.data.synth.city.CityModel` /
  :class:`~repro.data.synth.city.WorldModel` — the underlying venue models.
"""

from .checkins import CheckinWorld, default_sm_world
from .city import DEFAULT_CITIES, CityModel, WorldModel
from .taxi import TaxiWorld, default_cab_world

__all__ = [
    "CityModel",
    "WorldModel",
    "DEFAULT_CITIES",
    "TaxiWorld",
    "CheckinWorld",
    "default_cab_world",
    "default_sm_world",
]
