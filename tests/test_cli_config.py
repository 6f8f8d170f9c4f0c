"""CLI --config: serialized LinkageConfig files end to end, and errors
(flag-over-file resolution is table-driven in ``test_cli_flags.py``)."""

import json

import pytest

from repro.cli import main
from repro.data import sample_linkage_pair, save_csv
from repro.pipeline import LinkageConfig


@pytest.fixture(scope="module")
def config_csv_pair(tmp_path_factory, cab_world):
    tmp_path = tmp_path_factory.mktemp("cli-config")
    world = cab_world.subset(cab_world.entities[:12])
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=9)
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    save_csv(pair.left, left)
    save_csv(pair.right, right)
    return str(left), str(right), tmp_path


class TestConfigFile:
    def test_main_runs_with_config_file(self, config_csv_pair, capsys):
        left, right, tmp = config_csv_pair
        path = tmp / "run.json"
        path.write_text(json.dumps(LinkageConfig(threshold="none").to_dict()))
        assert main([left, right, "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("left,right,score,linked")


class TestConfigErrors:
    def test_unknown_field_errors_with_key(self, config_csv_pair, capsys):
        left, right, tmp = config_csv_pair
        path = tmp / "bad.json"
        path.write_text(json.dumps({"matchign": "greedy"}))
        assert main([left, right, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "matchign" in err

    def test_unknown_nested_field_errors_with_key(self, config_csv_pair, capsys):
        left, right, tmp = config_csv_pair
        path = tmp / "bad_nested.json"
        path.write_text(json.dumps({"similarity": {"window_minutes": 5}}))
        assert main([left, right, "--config", str(path)]) == 2
        assert "window_minutes" in capsys.readouterr().err

    def test_invalid_json_errors(self, config_csv_pair, capsys):
        left, right, tmp = config_csv_pair
        path = tmp / "broken.json"
        path.write_text("{not json")
        assert main([left, right, "--config", str(path)]) == 2

    def test_missing_file_errors(self, config_csv_pair, capsys):
        left, right, tmp = config_csv_pair
        assert main([left, right, "--config", str(tmp / "absent.json")]) == 2


class TestBundledExample:
    def test_bundled_example_config_runs_end_to_end(self, tmp_path, capsys):
        """The example config + CSVs shipped in examples/ are what the CI
        packaging job drives `slim-link` with after `pip install .` —
        keep them loading and linking."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        output = tmp_path / "links.csv"
        code = main([
            str(root / "examples" / "data" / "left.csv"),
            str(root / "examples" / "data" / "right.csv"),
            "--config", str(root / "examples" / "slim_link_config.json"),
            "--output", str(output),
        ])
        capsys.readouterr()
        assert code == 0
        lines = output.read_text().splitlines()
        assert lines[0] == "left,right,score,linked"
        assert len(lines) > 1  # it actually linked something
