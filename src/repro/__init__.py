"""SLIM: Scalable Linkage of Mobility Data — a full reproduction.

Reproduces Basık, Ferhatosmanoğlu & Gedik, *SLIM: Scalable Linkage of
Mobility Data*, SIGMOD 2020 (DOI 10.1145/3318464.3389761): linking entities
across mobility datasets from spatio-temporal information alone.

Quickstart::

    from repro import LinkageConfig, LinkagePipeline
    from repro.data.synth import default_cab_world
    from repro.data import sample_linkage_pair

    world = default_cab_world(num_taxis=40, duration_days=1.0).generate()
    pair = sample_linkage_pair(world, intersection_ratio=0.5,
                               inclusion_probability=0.5, rng=7)
    report = LinkagePipeline(LinkageConfig()).run(pair.left, pair.right)
    print(len(report.links), "links at threshold", report.threshold.threshold)

Package map — see docs/ARCHITECTURE.md for how the pieces fit:

* :mod:`repro.geo` — S2-like hierarchical spatial grid;
* :mod:`repro.temporal` — windowing + hierarchical count trees;
* :mod:`repro.data` — record model, loaders, sampling protocol, synthetic
  worlds;
* :mod:`repro.core` — histories, similarity (Eq. 1-3), matching, stop
  threshold, auto-tuning, the streaming linker;
* :mod:`repro.pipeline` — the composable stage pipeline (Alg. 1): stage
  protocol, plugin registries, :class:`LinkageConfig`,
  :class:`LinkageReport`, the runner;
* :mod:`repro.knobs` — one declaration per configuration knob; the
  configs' validation, ``from_dict`` and the CLI flags are derived from it;
* :mod:`repro.lsh` — dominating-cell signatures and banded bucketing;
* :mod:`repro.baselines` — ST-Link, GM and POIS comparators (ported onto
  the same stage pipeline);
* :mod:`repro.eval` — metrics and the experiment harness.
"""

from .core import SimilarityConfig
from .lsh import LshConfig
from .pipeline import (
    LinkageConfig,
    LinkagePipeline,
    LinkageReport,
)

__version__ = "1.1.0"

__all__ = [
    "LinkagePipeline",
    "LinkageConfig",
    "LinkageReport",
    "SimilarityConfig",
    "LshConfig",
    "__version__",
]
