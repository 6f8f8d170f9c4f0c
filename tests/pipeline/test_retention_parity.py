"""Eviction parity under every execution backend.

The retention contract (`tests/core/test_retention.py`) says a relink
after retirement is bit-identical to a cold run over the survivors.  This
suite pins the *executor* half of that contract: the same holds when the
scoring stage shards through the thread / process backends — and CI's
executor matrix additionally re-runs this whole module under each
``REPRO_EXECUTOR`` value.
"""

import pytest

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.pipeline import LinkageConfig

WIDTH = 900.0


def _round_records(side, round_idx, per_side=6, windows_per_round=8,
                   records_per_entity=3):
    jitter = 0.0 if side == "left" else 1.5e-4
    base = round_idx * windows_per_round * WIDTH
    return [
        Record(
            f"e{round_idx}_{i}",
            37.5 + 0.01 * i + 0.001 * k + jitter,
            -122.4 + 0.005 * round_idx + jitter,
            base + (k * 2 + i % 2) * WIDTH + 30.0,
        )
        for i in range(per_side)
        for k in range(records_per_entity)
    ]


def _run(config):
    linker = StreamingLinker(origin=0.0, config=config)
    observed = {"left": [], "right": []}
    evictions = 0
    for round_idx in range(4):
        for side in ("left", "right"):
            batch = _round_records(side, round_idx)
            observed[side].extend(batch)
            linker.observe(side, batch)
        linker.relink()
        evictions += linker.last_relink.evicted_left
    report = linker.relink()
    return linker, observed, report, evictions


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_eviction_parity_across_executors(executor):
    """Retired-then-relinked must equal a *serial* cold run over the
    survivors, bit for bit, whichever backend sharded the scoring."""
    config = LinkageConfig(
        score_block_size=32,  # force sharding
        retention="sliding_window",
        retention_window=12,
        threshold="none",
        executor=executor,
        workers=2,
    )
    linker, observed, report, evictions = _run(config)
    assert evictions > 0  # the stream actually retired entities
    assert linker.num_left_entities < 24  # retention bounded the side

    cold = StreamingLinker(
        origin=0.0, config=config.without(executor="serial")
    )
    for side in ("left", "right"):
        survivors = set(linker._sides[side])
        cold.observe(
            side, [r for r in observed[side] if r.entity_id in survivors]
        )
    cold_report = cold.relink()
    assert report.links == cold_report.links
    assert {(e.left, e.right): e.weight for e in report.edges} == {
        (e.left, e.right): e.weight for e in cold_report.edges
    }
    assert report.stats.bin_comparisons == cold_report.stats.bin_comparisons
