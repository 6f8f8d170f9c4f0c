"""CLI option-path tests (threshold methods, matchers, speed settings)."""

import pytest

from repro.cli import main
from repro.data import save_csv, sample_linkage_pair


@pytest.fixture(scope="module")
def small_csv_pair(tmp_path_factory, cab_world):
    tmp_path = tmp_path_factory.mktemp("cli-options")
    world = cab_world.subset(cab_world.entities[:12])
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=8)
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    save_csv(pair.left, left)
    save_csv(pair.right, right)
    return str(left), str(right)


class TestThresholdMethods:
    @pytest.mark.parametrize("method", ["gmm", "otsu", "two_means", "none"])
    def test_all_methods_run(self, small_csv_pair, method, capsys):
        left, right = small_csv_pair
        assert main([left, right, "--threshold-method", method]) == 0
        out = capsys.readouterr().out
        assert out.startswith("left,right,score,linked")


class TestMatchers:
    @pytest.mark.parametrize("matcher", ["greedy", "hungarian"])
    def test_all_matchers_run(self, small_csv_pair, matcher, capsys):
        left, right = small_csv_pair
        assert main([left, right, "--matching", matcher]) == 0


class TestSimilarityKnobs:
    def test_custom_window_and_level(self, small_csv_pair, capsys):
        left, right = small_csv_pair
        assert main(
            [left, right, "--window-minutes", "30", "--spatial-level", "10"]
        ) == 0

    def test_custom_speed_and_b(self, small_csv_pair, capsys):
        left, right = small_csv_pair
        assert main([left, right, "--max-speed-kmh", "60", "--b", "0.8"]) == 0

    def test_stderr_summary_counts(self, small_csv_pair, capsys):
        left, right = small_csv_pair
        main([left, right])
        err = capsys.readouterr().err
        assert "candidate pairs" in err
        assert "bin comparisons" in err


class TestRetentionAndBlockSizeFlags:
    def test_retention_without_window_is_a_config_error(
        self, small_csv_pair, capsys
    ):
        left, right = small_csv_pair
        code = main([left, right, "--retention", "max_entities"])
        captured = capsys.readouterr()
        assert code == 2
        assert "retention_window" in captured.err

    def test_run_with_explicit_block_size_links(self, small_csv_pair, capsys):
        left, right = small_csv_pair
        assert main([left, right, "--score-block-size", "64"]) == 0
        assert "links" in capsys.readouterr().err


class TestResilienceFlags:
    def test_run_with_resilience_flags_links(self, small_csv_pair, capsys):
        left, right = small_csv_pair
        assert main(
            [left, right, "--timeout", "30", "--retries", "3"]
        ) == 0
        assert "links" in capsys.readouterr().err
