"""Adversarially malformed input rows through the loaders' quarantine path.

Every loader is fed a file interleaving clean rows with hostile ones —
NaN coordinates, out-of-range lat/lng, unparsable timestamps, truncated
lines — under ``on_error="skip"``.  The contract: every hostile row is
quarantined with a usable reason, every clean row loads, and the
resulting dataset is *identical* to loading the clean file — so a
downstream linkage run cannot be perturbed by garbage rows.
"""

import pytest

from repro.data import LocationDataset, Record, save_csv
from repro.data.io import (
    QuarantineReport,
    load_csv,
    load_geolife,
    load_gowalla,
)
from repro.pipeline import LinkagePipeline
from repro.pipeline.config import LinkageConfig
from repro.scenarios import scenario_pair

NAN = float("nan")

CLEAN_CSV_ROWS = [
    "a,37.77,-122.42,1500000000",
    "a,37.78,-122.41,1500000600",
    "b,37.70,-122.45,1500000300",
    "b,37.71,-122.44,1500000900",
]

ADVERSARIAL_CSV_ROWS = [
    "evil,nan,-122.42,1500000000",          # NaN latitude
    "evil,37.77,nan,1500000060",            # NaN longitude
    "evil,95.0,-122.42,1500000120",         # latitude out of range
    "evil,-91.5,-122.42,1500000180",        # latitude out of range (south)
    "evil,37.77,200.0,1500000240",          # longitude out of range
    "evil,37.77,-181.0,1500000300",         # longitude out of range (west)
    "evil,not_a_float,-122.42,1500000360",  # unparsable latitude
    "evil,37.77,-122.42,12:00:00T2010-01-01",  # reversed/garbled timestamp
    "evil,37.77,-122.42,never o'clock",     # unparsable timestamp
    "evil,37.77,-122.42,nan",               # parses, but is no instant
    "evil,37.77,-122.42,-inf",              # ditto
    "evil,37.77,-122.42,1e400",             # overflows to inf
]


def write_csv(path, rows):
    path.write_text("\n".join(["entity,lat,lng,timestamp", *rows]) + "\n")
    return path


class TestCsvQuarantine:
    @pytest.fixture()
    def loaded(self, tmp_path):
        dirty = CLEAN_CSV_ROWS[:2] + ADVERSARIAL_CSV_ROWS + CLEAN_CSV_ROWS[2:]
        dataset, report = load_csv(
            write_csv(tmp_path / "dirty.csv", dirty), on_error="skip"
        )
        return dataset, report

    def test_every_adversarial_row_quarantined(self, loaded):
        dataset, report = loaded
        assert isinstance(report, QuarantineReport)
        assert report.skipped == len(ADVERSARIAL_CSV_ROWS)
        assert report.loaded == len(CLEAN_CSV_ROWS)
        assert dataset.num_records == len(CLEAN_CSV_ROWS)
        assert sorted(dataset.entities) == ["a", "b"]

    def test_reasons_are_machine_checkable(self, loaded):
        _, report = loaded
        reasons = report.reasons()
        assert sum(reasons.values()) == report.skipped
        out_of_range = sum(
            count for reason, count in reasons.items() if "out of range" in reason
        )
        malformed = sum(
            count for reason, count in reasons.items() if reason.startswith("malformed")
        )
        # NaN coords fail the range comparison, so they land there too.
        assert out_of_range == 6
        assert malformed == 6
        assert sum(
            count for reason, count in reasons.items()
            if "timestamp not finite" in reason
        ) == 3

    def test_rows_carry_forensics(self, loaded):
        _, report = loaded
        for row in report.rows:
            assert row.source.endswith("dirty.csv")
            assert row.line >= 2  # 1 is the header
            assert "evil" in row.raw

    def test_dataset_identical_to_clean_load(self, loaded, tmp_path):
        dirty_dataset, _ = loaded
        clean = load_csv(
            write_csv(tmp_path / "clean.csv", CLEAN_CSV_ROWS), name="dirty"
        )
        assert dirty_dataset.entities == clean.entities
        for entity in clean.entities:
            for a, b in zip(
                dirty_dataset.columns(entity), clean.columns(entity)
            ):
                assert (a == b).all()

    def test_descending_timestamps_are_sorted_not_quarantined(self, tmp_path):
        reversed_rows = list(reversed(CLEAN_CSV_ROWS))
        dataset, report = load_csv(
            write_csv(tmp_path / "rev.csv", reversed_rows), on_error="skip"
        )
        assert report.skipped == 0
        for entity in dataset.entities:
            timestamps = dataset.columns(entity)[0]
            assert (timestamps[:-1] <= timestamps[1:]).all()

    def test_raise_mode_stops_at_first_bad_row(self, tmp_path):
        path = write_csv(
            tmp_path / "dirty.csv", CLEAN_CSV_ROWS[:1] + ADVERSARIAL_CSV_ROWS[:1]
        )
        with pytest.raises(ValueError, match="out of range"):
            load_csv(path)

    def test_raise_mode_names_a_non_finite_timestamp(self, tmp_path):
        path = write_csv(
            tmp_path / "dirty.csv", CLEAN_CSV_ROWS[:1] + ADVERSARIAL_CSV_ROWS[-3:]
        )
        with pytest.raises(ValueError, match=r"dirty.csv:3: .*timestamp not finite"):
            load_csv(path)


class TestDatasetConstructors:
    """The same gate for datasets that never were a file."""

    def test_from_records_names_the_entity(self):
        records = [Record("a", 37.0, -122.0, 10.0), Record("b", 37.0, -122.0, NAN)]
        with pytest.raises(ValueError, match="timestamp not finite for entity 'b'"):
            LocationDataset.from_records(records)

    @pytest.mark.parametrize("bad", [NAN, float("inf")])
    def test_from_arrays_names_the_entity(self, bad):
        columns = {
            "a": ([10.0, 20.0], [37.0, 37.0], [-122.0, -122.0]),
            "b": ([10.0, bad], [37.0, 37.0], [-122.0, -122.0]),
        }
        with pytest.raises(ValueError, match="timestamp not finite for entity 'b'"):
            LocationDataset.from_arrays(["a", "b"], columns)


class TestGowallaQuarantine:
    CLEAN = [
        "u1\t2010-10-19T23:55:27Z\t30.23\t-97.79\t22847",
        "u1\t2010-10-18T22:17:43Z\t30.26\t-97.76\t420315",
        "u2\t2010-10-17T23:42:03Z\t30.25\t-97.75\t316637",
    ]
    ADVERSARIAL = [
        "u9\t2010-10-19T23:55:27Z\tnan\t-97.79\t1",       # NaN latitude
        "u9\t2010-10-19T23:55:27Z\t30.23\t999.0\t2",      # lng out of range
        "u9\t23:55:27T2010-10-19\t30.23\t-97.79\t3",      # garbled timestamp
        "u9\tnan\t30.23\t-97.79\t4",                       # non-finite timestamp
        "u9\t2010-10-19T23:55:27Z",                        # truncated line
    ]

    def test_adversarial_checkins_quarantined(self, tmp_path):
        path = tmp_path / "checkins.txt"
        path.write_text("\n".join(self.CLEAN + self.ADVERSARIAL) + "\n")
        dataset, report = load_gowalla(path, on_error="skip")
        assert report.loaded == len(self.CLEAN)
        assert report.skipped == len(self.ADVERSARIAL)
        assert sorted(dataset.entities) == ["u1", "u2"]
        assert "truncated row" in report.reasons()

    def test_raise_mode_rejects_nan(self, tmp_path):
        path = tmp_path / "checkins.txt"
        path.write_text("\n".join(self.CLEAN + self.ADVERSARIAL[:1]) + "\n")
        with pytest.raises(ValueError, match="out of range"):
            load_gowalla(path)


class TestGeolifeQuarantine:
    HEADER = ["Geolife trajectory", "WGS 84", "Altitude is in Feet",
              "Reserved 3", "0,2,255,My Track,0,0,2182631065", "0"]
    CLEAN = [
        "39.984702,116.318417,0,492,39744.12,2008-10-23,02:53:04",
        "39.984683,116.318450,0,492,39744.12,2008-10-23,02:53:10",
    ]
    ADVERSARIAL = [
        "nan,116.318417,0,492,39744.12,2008-10-23,02:53:16",   # NaN latitude
        "139.9,116.3,0,492,39744.12,2008-10-23,02:53:22",      # lat out of range
        "39.98,116.31,0,492,39744.12,02:53:28,2008-10-23",     # reversed date/time
        "39.98,116.31",                                        # truncated row
    ]

    def _tree(self, tmp_path, rows):
        trajectory = tmp_path / "Data" / "000" / "Trajectory"
        trajectory.mkdir(parents=True)
        (trajectory / "20081023025304.plt").write_text(
            "\n".join(self.HEADER + rows) + "\n"
        )
        return tmp_path

    def test_adversarial_points_quarantined(self, tmp_path):
        root = self._tree(tmp_path, self.CLEAN + self.ADVERSARIAL)
        dataset, report = load_geolife(root, on_error="skip")
        assert report.loaded == len(self.CLEAN)
        assert report.skipped == len(self.ADVERSARIAL)
        assert list(dataset.entities) == ["000"]
        assert "truncated row" in report.reasons()


class TestEndToEndThroughPipeline:
    def test_linkage_unperturbed_by_quarantined_rows(self, tmp_path):
        """A full pipeline run over CSVs polluted with adversarial rows
        must produce exactly the links of the clean run."""
        pair = scenario_pair("baseline_cab", seed=7, scale=0.5)
        left_path = tmp_path / "left.csv"
        right_path = tmp_path / "right.csv"
        save_csv(pair.left, left_path)
        save_csv(pair.right, right_path)

        clean_report = LinkagePipeline(LinkageConfig()).run(
            load_csv(left_path, name="left"), load_csv(right_path, name="right")
        )

        poison = "\n".join(ADVERSARIAL_CSV_ROWS) + "\n"
        dirty_left = tmp_path / "dirty_left.csv"
        dirty_left.write_text(left_path.read_text() + poison)
        dirty_right = tmp_path / "dirty_right.csv"
        dirty_right.write_text(right_path.read_text() + poison)

        left, left_quarantine = load_csv(
            dirty_left, name="left", on_error="skip"
        )
        right, right_quarantine = load_csv(
            dirty_right, name="right", on_error="skip"
        )
        assert left_quarantine.skipped == len(ADVERSARIAL_CSV_ROWS)
        assert right_quarantine.skipped == len(ADVERSARIAL_CSV_ROWS)

        dirty_report = LinkagePipeline(LinkageConfig()).run(left, right)
        assert dict(dirty_report.links) == dict(clean_report.links)
        dirty_scores = {(e.left, e.right): e.weight for e in dirty_report.edges}
        clean_scores = {(e.left, e.right): e.weight for e in clean_report.edges}
        assert dirty_scores == clean_scores
