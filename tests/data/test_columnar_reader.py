"""The columnar readers against the scalar reader they replaced.

``scalar_reader.scalar_load_csv`` is ``load_csv`` as it stood before the
loaders went columnar, kept verbatim as the oracle.  Generated files mix
clean rows with every adversarial class of
``test_quarantine_adversarial.py``, rows of the wrong width, blank lines,
quoted fields holding the delimiter or a newline (so a row's line number
is not its index), CRLF, repeated header names, custom column names and
delimiters, ISO timestamps and equal timestamps inside an entity — and in
both ``on_error`` modes the two readers must agree on everything: entity
order, the bits and dtypes of every column, every quarantined row, the
text of the exception.  The rest pins what rode along with the rewrite:
how the tab / PLT loaders use the shared function, file encodings, what
``save_csv`` writes, and the shape of ``data/io.py`` itself.
"""

import ast
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_reader import scalar_load_csv

import repro.data.io as data_io
from repro.data import (
    LocationDataset,
    Record,
    load_csv,
    load_geolife,
    load_gowalla,
    save_csv,
)

NAMES = ("entity", "lat", "lng", "timestamp")

ENTITIES = st.sampled_from(["a", "b", "c", "évil", "a b", ""])
GOOD_LATS = st.sampled_from(
    ["37.77", "-89.999", "90", "-90.0", " 12.5 ", "1_0", "１２.５", "4e1", "+.5", "-0.0"]
)
GOOD_LNGS = st.sampled_from(
    ["-122.42", "180", "-180.0", "0", "\t7.25", "1_7_9", "１２", "1.79e2"]
)
# Few distinct instants, so entities repeat timestamps and file order
# decides; ISO with and without a zone beside POSIX seconds.
GOOD_TIMES = st.sampled_from(
    [
        "1500000000", "1500000000.0", "1500000600", "15e8", " 1500000300 ", "-5",
        "2017-07-14T02:40:00Z", "2017-07-14T02:40:00", "2017-07-14 02:50:00+02:00",
        "2017-07-14", "\x1c1500000000",
    ]
)
BAD_LATS = st.sampled_from(["nan", "95.0", "-91.5", "not_a_float", "", "inf", "0x10"])
BAD_LNGS = st.sampled_from(["nan", "200.0", "-181.0", "1,5", "-inf", "１２３４"])
BAD_TIMES = st.sampled_from(
    ["12:00:00T2010-01-01", "never o'clock", "nan", "-inf", "1e400", "", "2017-13-01"]
)
# Cells of columns the loader does not read, and the surplus of long rows:
# the delimiters, quotes and newlines that make a row span lines.
EXTRAS = st.sampled_from(
    ["x", "", "a,b", "semi;colon", "two\nlines", 'say "hi"', "t\tb"]
)


@st.composite
def rows(draw):
    """The cells of one row in ``NAMES`` order, or ``None`` for a blank line."""
    kinds = ["clean"] * 6 + ["bad", "bad", "blank", "short", "long"]
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return None
    cells = [draw(ENTITIES), draw(GOOD_LATS), draw(GOOD_LNGS), draw(GOOD_TIMES)]
    if kind == "bad":
        for column, bad in draw(
            st.lists(
                st.sampled_from([(1, BAD_LATS), (2, BAD_LNGS), (3, BAD_TIMES)]),
                min_size=1, max_size=2,
            )
        ):
            cells[column] = draw(bad)
    return kind, cells


@st.composite
def csv_files(draw):
    """``(text, load_csv keyword arguments)`` of one generated file."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    names = draw(st.sampled_from([NAMES, ("uid", "latitude", "longitude", "ts")]))
    # Where each of the four columns sits; a second, earlier column of the
    # same name must lose to it.
    unread = draw(st.lists(st.none(), max_size=2))
    layout = draw(st.permutations(list(range(4)) + unread))
    header = [
        f"extra{k}" if slot is None else names[slot] for k, slot in enumerate(layout)
    ]
    shadowed = draw(st.sampled_from([None, 0, 1, 3]))
    if shadowed is not None:
        layout = [None] + list(layout)
        header = [names[shadowed]] + header
    buffer = io.StringIO()
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator=newline)
    writer.writerow(header)
    for row in draw(st.lists(rows(), max_size=12)):
        if row is None:
            buffer.write(newline)
            continue
        kind, cells = row
        line = [draw(EXTRAS) if slot is None else cells[slot] for slot in layout]
        if kind == "short":
            line = line[: draw(st.integers(1, len(line) - 1))]
        elif kind == "long":
            line += draw(st.lists(EXTRAS, min_size=1, max_size=3))
        writer.writerow(line)
    keywords = {"delimiter": delimiter}
    if names is not NAMES:
        parameters = ("entity_column", "lat_column", "lng_column", "time_column")
        keywords.update(zip(parameters, names))
    return buffer.getvalue(), keywords


def outcome(reader, path, **keywords):
    """Everything observable about one load, exceptions included."""
    try:
        loaded = reader(path, **keywords)
    except Exception as error:  # noqa: BLE001 - the oracle's failures are the contract
        return type(error), str(error)
    dataset, report = loaded if isinstance(loaded, tuple) else (loaded, None)
    columns = [
        (entity, [(c.dtype, c.tobytes()) for c in dataset.columns(entity)])
        for entity in dataset.entities
    ]
    return dataset.name, columns, report and (report.loaded, report.rows)


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory)


class TestAgainstTheScalarReader:
    @pytest.mark.parametrize("slice_rows", [data_io._SLICE_ROWS, 2])
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(generated=csv_files())
    def test_same_outcome_in_both_modes(
        self, scratch, monkeypatch, slice_rows, generated
    ):
        monkeypatch.setattr(data_io, "_SLICE_ROWS", slice_rows)
        text, keywords = generated
        path = scratch / "generated.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for mode in ("skip", "raise"):
            expected = outcome(scalar_load_csv, path, on_error=mode, **keywords)
            assert outcome(load_csv, path, on_error=mode, **keywords) == expected

    def test_the_classes_the_generator_must_reach(self, scratch):
        """One hand-written file through the same comparison, so the
        classes above are exercised on every run, whatever was drawn."""
        path = scratch / "classes.csv"
        path.write_text(
            "lat,entity,lat,lng,timestamp,note\r\n"
            '99,a,37.77,-122.42,1500000600,"quoted, and\nsplit"\r\n'
            "\r\n\r\n"
            "99,evil,nan,-122.42,1500000000,after two blank lines\r\n"
            "0,a,1_0, 12.5 ,2017-07-14T02:40:00Z,x\r\n"
            "0,a,１２,0,1500000600,same instant as the first row\r\n"
            "0,b,37.7\r\n"
            "0,b,37.7,-122.4,1500000000,x,surplus,cells\r\n"
            "0,b,37.7,-122.4,1e400,x\r\n",
            encoding="utf-8", newline="",
        )
        dataset, report = load_csv(path, on_error="skip")
        assert dataset.entities == ["a", "b"]
        assert dataset.columns("a")[1].tolist() == [10.0, 37.77, 12.0]
        assert [(row.line, row.reason.split(":")[0]) for row in report.rows] == [
            (6, "latitude out of range"),  # lines, not rows: 2-3 are one row, 4-5 blank
            (9, "malformed"),  # too short to hold a longitude
            (11, "malformed"),
        ]
        for mode in ("skip", "raise"):
            assert outcome(load_csv, path, on_error=mode) == outcome(
                scalar_load_csv, path, on_error=mode
            )

    def test_from_records_is_from_columns(self):
        records = [
            Record("u2", 1.0, 2.0, 30.0), Record("u1", 3.0, 4.0, 20.0),
            Record("u2", 5.0, 6.0, 10.0), Record("u2", 7.0, 8.0, 10.0),
        ]
        entities, lats, lngs, timestamps = zip(*records)
        for dataset in (
            LocationDataset.from_records(iter(records)),
            LocationDataset.from_columns(entities, (timestamps, lats, lngs)),
        ):
            assert dataset.entities == ["u2", "u1"]
            assert [column.tolist() for column in dataset.columns("u2")] == [
                [10.0, 10.0, 30.0], [5.0, 7.0, 1.0], [6.0, 8.0, 2.0],
            ]
        with pytest.raises(ValueError, match="column lengths differ"):
            LocationDataset.from_columns(["a"], ([1.0, 2.0], [0.0, 0.0], [0.0, 0.0]))
        with pytest.raises(ValueError, match="longitude out of range: 181.0"):
            columns = ([1.0, np.nan], [0.0, 0.0], [181.0, 0.0])
            LocationDataset.from_columns(["a", "b"], columns)


class TestTabAndPltThroughTheSharedFunction:
    CHECKINS = [
        "u1\t2010-10-19T23:55:27Z\t30.23\t-97.79\t1",
        "u9\t2010-10-19T23:55:27Z\t30.23\t999.0\t2",   # bad lng
        "broken line",                                 # truncated
        "u9\tlater\t30.23\t-97.79\t3",                 # bad timestamp
        "u2\t2010-10-18T22:17:43Z\t30.26\t-97.76\t4",
        "",
        "u3\t2010-10-17T23:42:03Z\t30.25\t-97.75\t5",
        "u9\t2010-10-17T23:42:03Z\tnan\t-97.75\t6",    # bad lat, after the cut
        "also broken",                                 # truncated, after the cut
        "u4\t2010-10-16T23:42:03Z\t30.25\t-97.75\t7",
    ]

    @pytest.fixture()
    def checkins(self, tmp_path):
        path = tmp_path / "checkins.txt"
        path.write_text("\n".join(self.CHECKINS) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("slice_rows", [data_io._SLICE_ROWS, 2])
    def test_report_rows_stay_in_input_order(self, checkins, monkeypatch, slice_rows):
        monkeypatch.setattr(data_io, "_SLICE_ROWS", slice_rows)
        dataset, report = load_gowalla(checkins, on_error="skip")
        assert dataset.entities == ["u1", "u2", "u3", "u4"]
        assert [(row.line, row.reason.split(":")[0]) for row in report.rows] == [
            (2, "longitude out of range"), (3, "truncated row"), (4, "malformed"),
            (8, "latitude out of range"), (9, "truncated row"),
        ]
        assert report.rows[1].raw == "broken line"

    @pytest.mark.parametrize("slice_rows", [data_io._SLICE_ROWS, 2])
    def test_max_records_stops_on_the_last_kept_line(
        self, checkins, monkeypatch, slice_rows
    ):
        monkeypatch.setattr(data_io, "_SLICE_ROWS", slice_rows)
        dataset, report = load_gowalla(checkins, max_records=3, on_error="skip")
        assert dataset.entities == ["u1", "u2", "u3"]
        assert (report.loaded, [row.line for row in report.rows]) == (3, [2, 3, 4])

    def test_max_records_never_reads_a_bad_row_past_the_cut(self, tmp_path):
        path = tmp_path / "checkins.txt"
        path.write_text("\n".join(self.CHECKINS[:1] + self.CHECKINS[4:]) + "\n")
        assert load_gowalla(path, max_records=3).num_records == 3
        with pytest.raises(ValueError, match=r"checkins.txt:5: latitude out of range"):
            load_gowalla(path, max_records=4)

    def test_geolife_skips_truncated_rows_silently_under_raise(self, tmp_path):
        trajectory = tmp_path / "Data" / "007" / "Trajectory"
        trajectory.mkdir(parents=True)
        (trajectory / "a.plt").write_text(
            "h1\nh2\nh3\nh4\nh5\nh6\n"
            "39.9,116.3,0,100,39000.0,2008-10-23,02:53:04\n"
            "39.9,116.3\n"
            "\n"
            "39.8,116.2,0,100,39000.0,2008-10-23,02:53:00\n"
        )
        (trajectory / "empty.plt").write_text("h1\nh2\nh3\nh4\nh5\nh6\n")
        dataset = load_geolife(tmp_path)
        assert dataset.columns("007")[1].tolist() == [39.8, 39.9]
        _, report = load_geolife(tmp_path, on_error="skip")
        (row,) = report.rows
        assert (Path(row.source).name, row.line) == ("a.plt", 8)
        assert row.reason == "truncated row"


class TestEncodings:
    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffentity,lat,lng,timestamp\nzoë,1.0,2.0,100\n", "utf-8")
        assert load_csv(path).entities == ["zoë"]
        path.write_text("\ufeffzoë\t2010-01-01T00:00:00Z\t1.0\t2.0\t5\n", "utf-8")
        assert load_gowalla(path).entities == ["zoë"]

    def test_save_csv_writes_utf8_from_the_columns(self, tmp_path):
        dataset = LocationDataset.from_records(
            [
                Record("zoë", 37.123456789, -122.5, 1500000000.0004),
                Record("u,1", -0.00000004, 180.0, 2.0005),
                Record("zoë", 90.0, -180.0, 7.25),
            ]
        )
        save_csv(dataset, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (
            "entity,lat,lng,timestamp\r\n"
            "zoë,90.0000000,-180.0000000,7.250\r\n"
            "zoë,37.1234568,-122.5000000,1500000000.000\r\n"
            '"u,1",-0.0000000,180.0000000,2.001\r\n'
        ).encode("utf-8")
        assert load_csv(tmp_path / "out.csv").entities == ["zoë", "u,1"]


class TestShapeOfTheLoaderModule:
    TREE = ast.parse(Path(data_io.__file__).read_text(encoding="utf-8"))

    def test_no_dict_reader(self):
        assert "DictReader" not in Path(data_io.__file__).read_text(encoding="utf-8")

    def test_records_are_built_by_the_explainer_only(self):
        builders = {
            function.name
            for function in ast.walk(self.TREE)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Record"
        }
        assert builders == {"_explain"}

    def test_one_quarantine_block(self):
        """Rows are refused in one place: one handler turns a failed parse
        into a reason, and the function it sits in is the only one that
        quarantines or names ``source:line``."""
        functions = [
            node for node in ast.walk(self.TREE) if isinstance(node, ast.FunctionDef)
        ]
        refusing = {
            function.name
            for function in functions
            for node in ast.walk(function)
            if (isinstance(node, ast.Attribute) and node.attr == "quarantine")
            or isinstance(getattr(node, "type", None), ast.Tuple)
        }
        assert refusing == {"_explain"}
        handlers = [
            node for node in ast.walk(self.TREE) if isinstance(node, ast.ExceptHandler)
        ]
        assert sum(isinstance(handler.type, ast.Tuple) for handler in handlers) == 1
