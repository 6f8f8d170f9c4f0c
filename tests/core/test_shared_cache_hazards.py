"""Hazards of one score cache shared between owners.

A shared :class:`~repro.core.score_cache.ScoreCache` holds rows of every
owner that uses it, and an owner's entity ids (or the cache's integer
codes for them) say nothing about any other owner's.  Pinned here:

* two streaming linkers over different data, relinking in turn on one
  cache while one of them evicts, each equal a twin with a private cache
  — links, scores, counters and :class:`RelinkStats`;
* an id retired and observed again while a batch pipeline run holds rows
  under that id in the same cache relinks exactly like a cold linker;
* a capture written with ``(space, left id, right id)`` keys — the shape
  of every committed snapshot and cache file — restores and is served
  as hits.
"""

import numpy as np
import pytest

from cache_calls import capture_rows, lookup
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import LocationDataset, Record
from repro.lsh import LshConfig
from repro.pipeline import LinkageConfig, LinkagePipeline

WIDTH = 900.0


def _records(prefix, side, round_idx, per_side=6, records_per_entity=3):
    """Round ``round_idx``'s records: ``per_side`` entities active in the
    round's window span only; equal ids land on nearby spots."""
    jitter = 0.0 if side == "left" else 1.5e-4
    base = round_idx * 8 * WIDTH
    return [
        Record(
            f"{prefix}{round_idx}_{i}",
            37.5 + 0.01 * i + 0.001 * k + jitter,
            -122.4 + 0.005 * round_idx + jitter,
            base + (2 * k + i % 2) * WIDTH + 30.0,
        )
        for i in range(per_side)
        for k in range(records_per_entity)
    ]


def _outcome(linker, report):
    return (
        report.links,
        {(edge.left, edge.right): edge.weight for edge in report.edges},
        report.candidate_pairs,
        report.threshold.threshold,
        (
            report.stats.pairs_scored,
            report.stats.bin_comparisons,
            report.stats.common_windows,
            report.stats.alibi_bin_pairs,
        ),
        linker.last_relink,
    )


_CONFIGS = {
    "evicting": LinkageConfig(
        retention="sliding_window", retention_window=12, threshold="none"
    ),
    "lsh": LinkageConfig(
        lsh=LshConfig(step_windows=4, spatial_level=14), threshold="none"
    ),
}


@pytest.mark.parametrize(
    "prefixes", [("a", "b"), ("e", "e")], ids=["own-ids", "same-ids"]
)
def test_two_linkers_on_one_cache_each_equal_a_private_twin(prefixes):
    """Interleaved relinks on one cache, the first linker evicting every
    few rounds.  With ids of their own each linker equals its private
    twin bit for bit, :class:`RelinkStats` included; with the same ids an
    eviction also sweeps the other linker's rows (a retired id restarts at
    version 0 anywhere), which costs it misses but no bit of a result."""
    shared = ScoreCache()
    names = list(_CONFIGS)
    linkers = {
        name: StreamingLinker(0.0, config=_CONFIGS[name], score_cache=shared)
        for name in names
    }
    twins = {name: StreamingLinker(0.0, config=_CONFIGS[name]) for name in names}
    for round_idx in range(5):
        for name, prefix in zip(names, prefixes):
            for subject in (linkers[name], twins[name]):
                for side in ("left", "right"):
                    subject.observe(side, _records(prefix, side, round_idx))
            got = _outcome(linkers[name], linkers[name].relink())
            want = _outcome(twins[name], twins[name].relink())
            if prefixes[0] != prefixes[1]:
                assert got == want, (name, round_idx)
            else:
                assert got[:5] == want[:5], (name, round_idx)
    assert linkers["evicting"].last_relink.evicted_left > 0


def _dataset(records, name):
    return LocationDataset.from_records(records, name=name)


def test_a_retired_id_observed_again_beside_a_batch_run_relinks_cold():
    """The linker retires ``e1_0`` and observes it again (new records,
    history version 0) while a batch run on the same cache holds rows
    under ``e1_0`` in its own space: the relink equals a cold linker over
    the final data, and the batch run, repeated, still equals itself."""
    config = LinkageConfig(threshold="none")
    cache = ScoreCache()
    linker = StreamingLinker(0.0, config=config, score_cache=cache)
    observed = {"left": [], "right": []}
    for round_idx in range(2):
        for side in ("left", "right"):
            batch = _records("e", side, round_idx)
            observed[side].extend(batch)
            linker.observe(side, batch)
    linker.relink()

    left = _dataset(observed["left"], "left")
    right = _dataset(observed["right"], "right")
    batch_report = LinkagePipeline(config).run(left, right, score_cache=cache)
    # Rows under e1_0 in two spaces: the linker's and the batch run's.
    rows = capture_rows(cache.checkpoint())
    assert len({key[0] for key in rows if key[1] == "e1_0"}) == 2

    linker.retire("left", ["e1_0"])
    again = [
        Record("e1_0", record.lat + 0.002, record.lng, record.timestamp + WIDTH)
        for record in observed["left"]
        if record.entity_id == "e1_0"
    ]
    observed["left"] = [
        record for record in observed["left"] if record.entity_id != "e1_0"
    ] + again
    linker.observe("left", again)
    report = linker.relink()

    cold = StreamingLinker(0.0, config=config)
    for side in ("left", "right"):
        cold.observe(side, observed[side])
    cold_report = cold.relink()
    assert _outcome(linker, report)[:5] == _outcome(cold, cold_report)[:5]
    assert linker.last_relink.candidate_pairs == cold.last_relink.candidate_pairs

    repeated = LinkagePipeline(config).run(left, right, score_cache=cache)
    assert repeated.links == batch_report.links
    assert {(e.left, e.right): e.weight for e in repeated.edges} == {
        (e.left, e.right): e.weight for e in batch_report.edges
    }


def test_a_capture_with_string_keys_restores_and_serves_hits():
    """The capture's shape is ``{"spaces": [space], "left_ids" /
    "right_ids": id arrays, "owners": (3, k) indices into those three,
    one array per value column, "hits", "misses"}`` — what every
    committed snapshot and cache file holds.  Built by hand, it
    restores, every row is a hit under its versions, and the capture
    taken back holds the same mapping."""
    keys = [
        ("space", "u1", "v1"),
        ("space", "u2", "v1"),
        (("tuple", "space", 3), "u1", "v2"),
    ]
    columns = {
        "u_version": np.array([0, 1, 2], dtype=np.int64),
        "v_version": np.array([3, 4, 5], dtype=np.int64),
        "raw": np.array([0.5, -1.25, 2.0]),
        "bin_comparisons": np.array([4, 6, 8], dtype=np.int64),
        "common_windows": np.array([1, 2, 3], dtype=np.int64),
        "alibi_bin_pairs": np.array([0, 1, 0], dtype=np.int64),
    }
    state = {
        "spaces": ["space", ("tuple", "space", 3)],
        "left_ids": np.array(["u1", "u2"], dtype=object),
        "right_ids": np.array(["v1", "v2"], dtype=object),
        "owners": np.array([[0, 0, 1], [0, 1, 0], [0, 0, 1]]),
        **columns,
        "hits": 7,
        "misses": 9,
    }
    assert capture_rows(state) == dict(
        zip(keys, zip(*(column.tolist() for column in columns.values())))
    )
    cache = ScoreCache()
    cache.restore(state)
    assert len(cache) == 3
    for position, (space, left, right) in enumerate(keys):
        entry = lookup(
            cache, space, left, right,
            int(columns["u_version"][position]), int(columns["v_version"][position]),
        )
        assert entry is not None
        assert tuple(entry) == tuple(
            column[position].item() for column in list(columns.values())[2:]
        )
    assert (cache.hits, cache.misses) == (7 + 3, 9)
    back = cache.checkpoint()
    assert sorted(back) == sorted(state)
    assert capture_rows(back) == capture_rows(state)
