"""Unit tests for the slim-link CLI."""

import pytest

from repro.cli import main
from repro.data import save_csv, sample_linkage_pair


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory, cab_world):
    tmp_path = tmp_path_factory.mktemp("cli")
    pair = sample_linkage_pair(cab_world, 0.5, 0.5, rng=5)
    left_path = tmp_path / "left.csv"
    right_path = tmp_path / "right.csv"
    save_csv(pair.left, left_path)
    save_csv(pair.right, right_path)
    return left_path, right_path, pair


class TestMain:
    def test_links_to_stdout(self, csv_pair, capsys):
        left_path, right_path, pair = csv_pair
        code = main([str(left_path), str(right_path)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "left,right,score,linked"
        assert len(lines) > 1
        assert "stop threshold" in captured.err

    def test_output_file(self, csv_pair, tmp_path, capsys):
        left_path, right_path, _ = csv_pair
        out = tmp_path / "links.csv"
        code = main([str(left_path), str(right_path), "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("left,right,score,linked")

    def test_links_mostly_correct(self, csv_pair, capsys):
        left_path, right_path, pair = csv_pair
        main([str(left_path), str(right_path)])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        produced = {}
        for line in lines:
            left, right, _, linked = line.split(",")
            if linked == "1":
                produced[left] = right
        correct = sum(
            1 for l, r in produced.items() if pair.ground_truth.get(l) == r
        )
        assert produced
        assert correct / len(produced) >= 0.7

    def test_all_matches_flag_shows_rejected(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        main([str(left_path), str(right_path), "--all-matches"])
        all_lines = capsys.readouterr().out.strip().splitlines()[1:]
        main([str(left_path), str(right_path)])
        linked_lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(all_lines) >= len(linked_lines)

    def test_lsh_mode_runs(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main([str(left_path), str(right_path), "--lsh", "--lsh-step-windows", "8"])
        assert code == 0
