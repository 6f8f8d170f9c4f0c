"""State-of-the-art comparators re-implemented for Sec. 5.5.

* :class:`~repro.baselines.stlink.StLinkLinker` — ST-Link (ref [3]):
  k-co-occurrence / l-diversity / alibi-tolerance linkage with ambiguity
  dropping.
* :class:`~repro.baselines.gm.GmLinker` — GM (ref [43]): per-entity
  Gaussian-mixture + Markov mobility models, record-pair kernel scores
  (cross-window pairs included), SLIM's matching + threshold on top.
* :class:`~repro.baselines.pois.PoisLinker` — POIS (ref [32]):
  rarity-weighted co-occurrence under a Poisson visit model, exact
  matching, no stop threshold.

Each ``link(left, right)`` runs the linker's stages through the shared
pipeline and returns its :class:`~repro.pipeline.report.LinkageReport`.
"""

from .gm import GmConfig, GmLinker
from .pois import PoisConfig, PoisLinker
from .stlink import StLinkConfig, StLinkLinker

__all__ = [
    "StLinkConfig",
    "StLinkLinker",
    "GmConfig",
    "GmLinker",
    "PoisConfig",
    "PoisLinker",
]
