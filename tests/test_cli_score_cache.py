"""`--score-cache PATH`: the round trip through the on-disk form (a
snapshot root holding ``ScoreCache.checkpoint()``), and its failure modes
— every untrustworthy cache must degrade to cold scoring with a warning
that *names* what is wrong, never an exception, never garbage scores,
and must be replaced by a trustworthy one on the way out.

`ScoreCache.load()` itself raises the named ``SnapshotError`` subclass
(pinned in ``tests/store/test_snapshot_failures.py``); the contract here
is that the CLI *catches* that, and that a cache whose fingerprints no
longer match the data (the corpus moved on) silently scores cold instead
of serving stale totals.
"""

import json

import pytest

from repro.cli import main
from repro.core.score_cache import ScoreCache
from repro.data import sample_linkage_pair, save_csv
from repro.store import read_snapshot


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory, cab_world):
    tmp_path = tmp_path_factory.mktemp("cli-score-cache")
    world = cab_world.subset(cab_world.entities[:10])
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=5)
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    save_csv(pair.left, left)
    save_csv(pair.right, right)
    return str(left), str(right), tmp_path


def _run(left, right, cache_path, capsys):
    code = main([left, right, "--score-cache", str(cache_path)])
    captured = capsys.readouterr()
    assert code == 0
    return captured


def _payload(cache_path):
    _, directory = read_snapshot(cache_path)
    return directory / "score_cache.pkl"


class TestRoundTrip:
    def test_first_run_creates_a_snapshot_root(self, csv_pair, capsys):
        left, right, tmp = csv_pair
        cache_path = tmp / "fresh"
        captured = _run(left, right, cache_path, capsys)
        assert "warning" not in captured.err  # a missing cache is not news
        assert "0 hits" in captured.err
        manifest, directory = read_snapshot(cache_path)
        assert sorted(manifest["files"]) == ["score_cache.pkl"]
        assert (cache_path / "CURRENT").read_text() == directory.name
        assert len(ScoreCache.load(cache_path)) > 0

    def test_warm_and_cold_links_identical(self, csv_pair, capsys):
        left, right, tmp = csv_pair
        cache_path = tmp / "warm"
        cold = _run(left, right, cache_path, capsys)
        warm = _run(left, right, cache_path, capsys)
        assert warm.out == cold.out
        assert "0 misses" in warm.err  # fully served from the cache
        # Each run checkpoints back; only the newest snapshot is kept.
        assert sorted(p.name for p in cache_path.iterdir()) == [
            "CURRENT",
            "snap-000002",
        ]


class TestCleanFallback:
    def _assert_cold_and_replaced(self, captured, cache_path, failure):
        assert "warning: ignoring score cache" in captured.err
        assert failure in captured.err  # named, not just "something broke"
        assert "0 hits" in captured.err  # cold scoring, not stale hits
        # The untrustworthy cache was replaced by a fresh valid one.
        assert len(ScoreCache.load(cache_path)) > 0

    def test_truncated_cache_falls_back_to_cold(self, csv_pair, capsys):
        left, right, tmp = csv_pair
        cache_path = tmp / "truncated"
        _run(left, right, cache_path, capsys)  # writes a valid cache
        payload = _payload(cache_path)
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])

        captured = _run(left, right, cache_path, capsys)
        self._assert_cold_and_replaced(
            captured, cache_path, "SnapshotDigestMismatch"
        )

    def test_corrupt_payload_falls_back_to_cold(self, csv_pair, capsys):
        left, right, tmp = csv_pair
        cache_path = tmp / "corrupt"
        _run(left, right, cache_path, capsys)
        payload = _payload(cache_path)
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip a payload byte
        payload.write_bytes(bytes(data))

        captured = _run(left, right, cache_path, capsys)
        self._assert_cold_and_replaced(
            captured, cache_path, "SnapshotDigestMismatch"
        )

    def test_torn_manifest_falls_back_to_cold(self, csv_pair, capsys):
        left, right, tmp = csv_pair
        cache_path = tmp / "torn"
        _run(left, right, cache_path, capsys)
        manifest = _payload(cache_path).parent / "manifest.json"
        manifest.write_text(manifest.read_text()[:20])

        captured = _run(left, right, cache_path, capsys)
        self._assert_cold_and_replaced(captured, cache_path, "SnapshotTruncated")

    @pytest.mark.parametrize("written", [1, 4])
    def test_other_format_falls_back_to_cold(self, csv_pair, capsys, written):
        left, right, tmp = csv_pair
        cache_path = tmp / f"skewed-{written}"
        _run(left, right, cache_path, capsys)
        manifest_path = _payload(cache_path).parent / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = written
        manifest_path.write_text(json.dumps(manifest))

        captured = _run(left, right, cache_path, capsys)
        self._assert_cold_and_replaced(
            captured, cache_path, "SnapshotVersionSkew"
        )

    @pytest.mark.parametrize(
        "blob",
        [b"REPRO-SCORE-CACHE\x01" + b"\0" * 64, b"definitely not a score cache"],
        ids=["legacy-single-file-cache", "foreign-file"],
    )
    def test_single_file_is_refused_by_name_and_replaced(
        self, csv_pair, capsys, blob
    ):
        """Caches used to be one file; such a file (or any foreign one)
        at PATH is named, scored past cold, and superseded by a snapshot
        root at the same PATH."""
        left, right, tmp = csv_pair
        cache_path = tmp / f"old-{len(blob)}.bin"
        cache_path.write_bytes(blob)

        captured = _run(left, right, cache_path, capsys)
        self._assert_cold_and_replaced(
            captured, cache_path, "SnapshotVersionSkew"
        )
        assert "single file" in captured.err
        assert cache_path.is_dir()
        again = _run(left, right, cache_path, capsys)
        assert "0 misses" in again.err and "warning" not in again.err


class TestFingerprintMismatchAfterMutation:
    def test_mutated_corpus_scores_cold_not_stale(self, csv_pair, capsys, cab_world):
        """A cache persisted over yesterday's data must not poison a run
        over today's: content-fingerprint spaces miss, scoring runs cold,
        and the output equals a run with no cache at all."""
        left, right, tmp = csv_pair
        cache_path = tmp / "stale"
        _run(left, right, cache_path, capsys)

        # "Corpus mutation": a different sample of the world on the left.
        world = cab_world.subset(cab_world.entities[:10])
        moved = sample_linkage_pair(world, 0.5, 0.5, rng=6)
        moved_left = tmp / "moved_left.csv"
        save_csv(moved.left, moved_left)

        uncached = main([str(moved_left), right])
        assert uncached == 0
        reference = capsys.readouterr()

        captured = _run(str(moved_left), right, cache_path, capsys)
        assert "0 hits" in captured.err  # no stale totals served
        assert captured.out == reference.out  # links identical to cacheless
