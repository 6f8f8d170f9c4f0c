"""``slim-link --snapshot-dir`` / ``serve --serve-state-dir``: state
accumulates across process lifetimes exactly as if it had been one run."""

import pytest

from repro.cli import main
from repro.data import LocationDataset, sample_linkage_pair, save_csv
from repro.store import read_snapshot


def _split(dataset, cut, name):
    """The records of ``dataset`` up to / after event time ``cut``."""
    early, late = [], []
    for record in dataset.records():
        (early if record.timestamp <= cut else late).append(record)
    return (
        LocationDataset.from_records(early, f"{name}-early"),
        LocationDataset.from_records(late, f"{name}-late"),
    )


@pytest.fixture(scope="module")
def csvs(tmp_path_factory, cab_world):
    tmp = tmp_path_factory.mktemp("cli-snapshot")
    world = cab_world.subset(cab_world.entities[:12])
    pair = sample_linkage_pair(world, 0.5, 0.5, rng=5)
    start = min(pair.left.time_range()[0], pair.right.time_range()[0])
    end = max(pair.left.time_range()[1], pair.right.time_range()[1])
    cut = start + 0.6 * (end - start)
    paths = {}
    for side, dataset in (("left", pair.left), ("right", pair.right)):
        early, late = _split(dataset, cut, side)
        for part, data in (("all", dataset), ("early", early), ("late", late)):
            paths[side, part] = str(tmp / f"{side}-{part}.csv")
            save_csv(data, paths[side, part])
    return paths, tmp


def _run(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr()


def _footer(err):
    """``# N links; stop threshold T (method); <where>; watermark W``
    minus the part that says where the state came from."""
    links, threshold, _where, watermark = err.strip().split("; ")
    return links, threshold, watermark


class TestSnapshotDir:
    def test_two_runs_over_split_inputs_equal_one_cold_run(self, csvs, capsys):
        paths, tmp = csvs
        split_dir, cold_dir = tmp / "split", tmp / "cold"

        first = _run(
            [paths["left", "early"], paths["right", "early"],
             "--snapshot-dir", str(split_dir)],
            capsys,
        )
        assert "cold start, checkpointed to" in first.err
        second = _run(
            [paths["left", "late"], paths["right", "late"],
             "--snapshot-dir", str(split_dir)],
            capsys,
        )
        assert "resumed from" in second.err
        cold = _run(
            [paths["left", "all"], paths["right", "all"],
             "--snapshot-dir", str(cold_dir)],
            capsys,
        )
        assert "cold start, checkpointed to" in cold.err

        # Same links, scores printed to 6 decimals, same stop threshold
        # and watermark in the footer.
        assert second.out == cold.out
        assert len(cold.out.splitlines()) > 1
        assert _footer(second.err) == _footer(cold.err)

        # And both equal the plain batch run (which prints in match order).
        batch = _run([paths["left", "all"], paths["right", "all"]], capsys)
        assert sorted(batch.out.splitlines()) == sorted(cold.out.splitlines())

        # Each run checkpointed back: the split root is on its 2nd snapshot.
        manifest, directory = read_snapshot(split_dir)
        assert directory.name == "snap-000002"
        assert sorted(manifest["files"]) == ["score_cache.pkl", "state.pkl"]
        assert manifest["watermark"] == read_snapshot(cold_dir)[0]["watermark"]

    def test_score_cache_flag_is_subsumed_with_a_warning(self, csvs, capsys):
        paths, tmp = csvs
        captured = _run(
            [paths["left", "all"], paths["right", "all"],
             "--snapshot-dir", str(tmp / "both"),
             "--score-cache", str(tmp / "unused-cache")],
            capsys,
        )
        assert "--score-cache is ignored with --snapshot-dir" in captured.err
        assert not (tmp / "unused-cache").exists()


class TestServeStateDir:
    def test_serve_resumes_and_continues_the_snapshot_numbering(self, csvs, capsys):
        paths, tmp = csvs
        state_dir = tmp / "serve-state"
        argv = ["serve", paths["left", "all"], paths["right", "all"],
                "--rounds", "3", "--serve-state-dir", str(state_dir)]
        # Each run snapshots its first publish, logs the other two rounds
        # and snapshots its stop, which prunes the log.
        first = _run(argv, capsys)
        assert read_snapshot(state_dir)[1].name == "snap-000002"
        second = _run(argv, capsys)
        assert read_snapshot(state_dir)[1].name == "snap-000004"
        assert sorted(p.name for p in state_dir.iterdir()) == [
            "CURRENT",
            "snap-000004",
        ]
        # Re-observing the same records changes no bin, so the links stand.
        assert second.out == first.out
