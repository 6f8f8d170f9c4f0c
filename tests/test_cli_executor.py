"""CLI executor and score-cache flags."""

import pytest

from repro.cli import main
from repro.data import sample_linkage_pair, save_csv


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory, cab_world):
    tmp_path = tmp_path_factory.mktemp("cli-executor")
    world = cab_world.subset(cab_world.entities[:12])
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=8)
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    save_csv(pair.left, left)
    save_csv(pair.right, right)
    return str(left), str(right)


class TestExecutorFlags:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_all_backends_run(self, csv_pair, backend, capsys):
        left, right = csv_pair
        assert main([left, right, "--executor", backend, "--workers", "2"]) == 0
        assert capsys.readouterr().out.startswith("left,right,score,linked")


class TestScoreCacheFlag:
    def test_warm_start_round_trip(self, csv_pair, tmp_path, capsys):
        left, right = csv_pair
        cache_path = tmp_path / "scores.bin"

        assert main([left, right, "--score-cache", str(cache_path)]) == 0
        first = capsys.readouterr()
        assert cache_path.exists()
        assert "0 hits" in first.err

        from repro.core.score_cache import ScoreCache

        misses_after_first = ScoreCache.load(cache_path).misses
        assert main([left, right, "--score-cache", str(cache_path)]) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # identical links either way
        assert "0 hits" not in second.err  # warm-started
        # Counters persist across runs; the second run added no misses.
        assert ScoreCache.load(cache_path).misses == misses_after_first

    def test_corrupt_cache_warns_and_rebuilds(self, csv_pair, tmp_path, capsys):
        left, right = csv_pair
        cache_path = tmp_path / "scores.bin"
        cache_path.write_bytes(b"not a cache")
        assert main([left, right, "--score-cache", str(cache_path)]) == 0
        err = capsys.readouterr().err
        assert "warning: ignoring score cache" in err
        # The run still persisted a fresh, now-valid cache.
        from repro.core.score_cache import ScoreCache

        assert len(ScoreCache.load(cache_path)) > 0
