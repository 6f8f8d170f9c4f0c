"""The ``slim-link serve`` front door: happy paths, serve-flag
validation (errors name the config field), and config-file round-trips
of the ``serve_*`` keys."""

import json

import pytest

from repro.cli import main
from repro.data import sample_linkage_pair, save_csv


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory, cab_world):
    tmp_path = tmp_path_factory.mktemp("cli_serve")
    pair = sample_linkage_pair(cab_world, 0.5, 0.5, rng=5)
    left_path = tmp_path / "left.csv"
    right_path = tmp_path / "right.csv"
    save_csv(pair.left, left_path)
    save_csv(pair.right, right_path)
    return left_path, right_path, pair


class TestServeHappyPath:
    def test_csv_replay_prints_links_and_counters(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(["serve", str(left_path), str(right_path), "--rounds", "3"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "left,right,score,linked"
        assert len(lines) > 1
        assert "serving counters (3 rounds)" in captured.err
        assert "snapshot_version" in captured.err
        assert "snapshot version 3" in captured.err

    def test_output_file(self, csv_pair, tmp_path, capsys):
        left_path, right_path, _ = csv_pair
        out = tmp_path / "links.csv"
        code = main(
            ["serve", str(left_path), str(right_path), "--output", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_text().startswith("left,right,score,linked")

    def test_scenario_replay_reports_quality(self, capsys):
        code = main(
            [
                "serve",
                "--scenario",
                "bursty_arrival",
                "--scenario-scale",
                "0.3",
                "--rounds",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# scenario bursty_arrival" in captured.err
        assert "f1" in captured.err

    def test_serve_flags_reach_the_service(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(
            [
                "serve",
                str(left_path),
                str(right_path),
                "--rounds",
                "2",
                "--serve-queue-depth",
                "32",
                "--serve-backpressure",
                "reject",
                "--queries-per-round",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "serving counters (2 rounds)" in captured.err


class TestServeValidation:
    def test_missing_inputs(self, capsys):
        code = main(["serve"])
        captured = capsys.readouterr()
        assert code == 2
        assert "need two CSV paths" in captured.err

    def test_scenario_and_csv_conflict(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(
            [
                "serve",
                str(left_path),
                str(right_path),
                "--scenario",
                "bursty_arrival",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--scenario replaces" in captured.err

    def test_bad_rounds(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(["serve", str(left_path), str(right_path), "--rounds", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--rounds" in captured.err

    def test_bad_backpressure_is_a_usage_error(self, csv_pair, capsys):
        """The policy set is the flag's ``choices`` (read off the config
        field), so argparse rejects an unknown one before any config is
        built."""
        left_path, right_path, _ = csv_pair
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve",
                    str(left_path),
                    str(right_path),
                    "--serve-backpressure",
                    "bogus",
                ]
            )
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "--serve-backpressure" in captured.err
        assert "'block', 'reject'" in captured.err

    def test_bad_queue_depth_names_the_field(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(
            [
                "serve",
                str(left_path),
                str(right_path),
                "--serve-queue-depth",
                "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "serve_queue_depth" in captured.err


class TestServeConfigFile:
    def test_serve_keys_load_from_config_file(self, csv_pair, tmp_path, capsys):
        left_path, right_path, _ = csv_pair
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "serve_queue_depth": 16,
                    "serve_backpressure": "block",
                }
            )
        )
        code = main(
            [
                "serve",
                str(left_path),
                str(right_path),
                "--config",
                str(config_path),
                "--rounds",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "serving counters" in captured.err

    @pytest.mark.parametrize("key", ["serve_batchs", "serve_batch"])
    def test_unknown_config_key_named(self, key, csv_pair, tmp_path, capsys):
        """A typo, and a key this service no longer has (the relink
        debounce is gone), are both unknown fields."""
        left_path, right_path, _ = csv_pair
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: 64}))
        code = main(
            [
                "serve",
                str(left_path),
                str(right_path),
                "--config",
                str(config_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"unknown LinkageConfig field '{key}'" in captured.err
