"""An outside ``restore()`` of a live linker's score cache cannot serve a
stale total.

``ScoreCache.restore`` can put back rows a linker's pair table never
read: totals computed under history versions that still match, but
under an IDF the linker's corpora have moved past since (a third
entity's growth shifts the document frequencies inside an untouched
pair, which no version key sees).  The cache counts the full captures
it adopts, and the linker's next relink drops every row of its own
scoring space when that count moved, so the relink equals a cold one.

Seeded sequences: six entities a side, one record of growth per step,
LSH and brute-force candidates alternating by seed, and an earlier
``checkpoint()`` of the cache restored from outside before about 30 %
of the relinks; after every relink, links and scores must equal a cold
linker's over the same records.
"""

from __future__ import annotations

import random

import pytest

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh.index import LshConfig
from repro.pipeline import LinkageConfig

SIDES = ("left", "right")
LSH = LshConfig(threshold=0.3, step_windows=8, spatial_level=14)
SEQUENCES = 200
STEPS = 6


def _record(entity, side, place, when):
    jitter = 0.0 if side == "left" else 1.1e-4
    return Record(
        entity,
        37.6 + (place % 5) * 0.01 + jitter,
        -122.4 + (place // 5) * 0.01 + jitter,
        when,
    )


def _config(seed):
    if seed % 2:
        return LinkageConfig(threshold="none", lsh=LSH)
    return LinkageConfig(threshold="none")


def _outcome(report):
    return dict(report.links), report.link_scores


def _cold(config, log):
    cold = StreamingLinker(0.0, config)
    for side in SIDES:
        cold.observe(side, log[side])
    return _outcome(cold.relink())


def _mismatches(seed):
    """The relinks of one sequence whose outcome differs from a cold
    linker's, as ``(step, restored)``."""
    rng = random.Random(seed)
    config = _config(seed)
    linker = StreamingLinker(0.0, config)
    log = {side: [] for side in SIDES}
    clock = 10.0
    for entity in range(6):
        for side in SIDES:
            records = [_record(f"e{entity}", side, entity, clock + 40.0 * k)
                       for k in range(3)]
            log[side].extend(records)
            linker.observe(side, records)
    captures, wrong = [], []
    for step in range(STEPS):
        restored = bool(captures) and rng.random() < 0.3
        if restored:
            linker.score_cache.restore(rng.choice(captures))
        if _outcome(linker.relink()) != _cold(config, log):
            wrong.append((step, restored))
        captures.append(linker.score_cache.checkpoint())
        side = rng.choice(SIDES)
        entity = rng.randrange(6)
        clock += rng.choice((60.0, 400.0, 1500.0))
        record = _record(f"e{entity}", side, entity + rng.choice((0, 0, 1)), clock)
        log[side].append(record)
        linker.observe(side, [record])
    return wrong


@pytest.mark.parametrize("block", range(4))
def test_every_relink_after_an_outside_restore_equals_a_cold_one(block):
    share = SEQUENCES // 4
    wrong = {
        seed: found
        for seed in range(block * share, (block + 1) * share)
        if (found := _mismatches(seed))
    }
    assert not wrong, f"seed: [(step, restored before it)] = {wrong}"
