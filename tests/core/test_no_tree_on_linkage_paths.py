"""The mechanism, pinned (not timed): every linkage path answers its
signature queries from one array pass per side.

The Fig. 1 ``TemporalCountTree`` is the test-side signature oracle
(``tests/fig1_oracle.py``), outside the package;
``tests/store/test_column_backends.py`` pins that no module of
``src/repro`` names it.  What stays pinned here is that batch runs, cold
/ delta / layout-rebuild relinks and snapshot restores agree, and that
snapshots carry no tree.
"""

import pickle

from lsh_calls import state

from repro.core.streaming import StreamingLinker
from repro.lsh import LshConfig
from repro.pipeline import LinkageConfig, LinkagePipeline

LSH = LshConfig(threshold=0.3, step_windows=48, spatial_level=14)


def _feed(linker, pair, lo, hi):
    for side, dataset in (("left", pair.left), ("right", pair.right)):
        linker.observe(
            side, (r for r in dataset.records() if lo < r.timestamp <= hi)
        )


def _span(pair):
    start = min(pair.left.time_range()[0], pair.right.time_range()[0])
    end = max(pair.left.time_range()[1], pair.right.time_range()[1])
    return start, end


def test_no_linkage_path_builds_a_tree(sm_pair, tmp_path):
    config = LinkageConfig(lsh=LSH)
    batch = LinkagePipeline(config).run(sm_pair.left, sm_pair.right)
    assert batch.links

    start, end = _span(sm_pair)
    cuts = [start + fraction * (end - start) for fraction in (0.45, 0.5, 1.0)]
    linker = StreamingLinker(start, config)
    _feed(linker, sm_pair, start - 1.0, cuts[0])
    linker.relink()  # cold: the index is built from nothing
    assert linker.last_relink.lsh_rebuilt
    _feed(linker, sm_pair, cuts[0], cuts[1])
    linker.relink()  # delta: dirty histories re-signatured in place
    assert not linker.last_relink.lsh_rebuilt
    assert linker.last_relink.dirty_left and linker.last_relink.dirty_right
    linker.save(tmp_path)
    _feed(linker, sm_pair, cuts[1], cuts[2])
    report = linker.relink()  # the span outgrew the layout: rebuilt
    assert linker.last_relink.lsh_rebuilt
    assert dict(report.links) == dict(batch.links)

    restored = StreamingLinker.restore(tmp_path, strict=True)
    _feed(restored, sm_pair, cuts[1], cuts[2])
    again = restored.relink()
    assert dict(again.links) == dict(report.links)
    assert again.link_scores == report.link_scores


def test_the_dirty_path_places_like_a_cold_build(sm_pair):
    """The streaming delta path (one matrix per side's dirty histories)
    leaves the index bucket-for-bucket, and in ``stats``, what a cold
    ``add_histories`` over the same histories builds."""
    # Step 192 = two days of 15-minute windows: the second half of day 5
    # grows histories without adding a signature slot.
    config = LinkageConfig(lsh=LshConfig(threshold=0.3, step_windows=192, spatial_level=14))
    start, end = _span(sm_pair)
    day = 86_400.0
    linker, cold = StreamingLinker(start, config), StreamingLinker(start, config)
    _feed(linker, sm_pair, start - 1.0, start + 4.6 * day)
    linker.relink()
    _feed(linker, sm_pair, start + 4.6 * day, start + 5.9 * day)
    linker.relink()
    assert not linker.last_relink.lsh_rebuilt
    assert linker.last_relink.dirty_left > 10
    _feed(cold, sm_pair, start - 1.0, start + 5.9 * day)
    cold.relink()
    # By id: the two linkers coded their entities in different orders.
    assert state(linker._lsh_index, linker.score_cache.entities) == state(
        cold._lsh_index, cold.score_cache.entities
    )


def test_snapshots_carry_no_trees(sm_pair, tmp_path):
    start, end = _span(sm_pair)
    linker = StreamingLinker(start, LinkageConfig(lsh=LSH))
    _feed(linker, sm_pair, start - 1.0, end)
    linker.relink()
    assert b"TemporalCountTree" not in pickle.dumps(linker.checkpoint())
    linker.save(tmp_path)
    restored = StreamingLinker.restore(tmp_path, strict=True)
    expected, actual = linker.relink(), restored.relink()
    assert dict(actual.links) == dict(expected.links)
    assert actual.link_scores == expected.link_scores
    assert restored.last_relink == linker.last_relink
