"""``load_csv``'s bulk cut against the scalar reader, and every way out of it.

A quote-free file whose non-blank lines all hold the header's number of
delimiters is cut into columns straight from its ``"\\n"``-split text;
``csv.reader`` then reads its header line and nothing else.  Generated
files of that kind — mixed ``\\n`` / ``\\r\\n`` / lone ``\\r`` line ends, a
byte-order mark, blank lines anywhere after the header, no final newline,
the bad cells of ``test_columnar_reader.py`` and cells holding characters
``str.splitlines`` would break a line on — must load exactly as
``scalar_reader.scalar_load_csv`` loads them.  Every file the bulk cut
does not take must reach ``csv.reader`` over the open file and still
match the oracle, exception class and text included.
"""

import csv
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_reader import scalar_load_csv
from test_columnar_reader import (
    BAD_LATS,
    BAD_LNGS,
    BAD_TIMES,
    ENTITIES,
    EXTRAS,
    GOOD_LATS,
    GOOD_LNGS,
    GOOD_TIMES,
    NAMES,
    outcome,
)

import repro.data.io as data_io
from repro.data import load_csv

# Characters ``str.splitlines`` ends a line on and ``csv.reader`` does not.
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD = st.sampled_from(SPLITLINES_ONLY)
ODD_NUMBERS = st.sampled_from(["\x8512.5", "\u202812", "\x0b-3.5", "1\x1c", "7\x85"])


def _tap(source, drawn):
    for line in source:
        drawn.append(line)
        yield line


@contextmanager
def watched_reader():
    """``csv.reader`` as ``load_csv`` calls it: each call's source and the
    lines the reader drew from it."""
    calls = []
    real = csv.reader

    def reader(source, *args, **kwargs):
        drawn = []
        calls.append((source, drawn))
        return real(_tap(source, drawn), *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io.csv, "reader", reader)
        yield calls


def cell(strategy, delimiter):
    """Cells of ``strategy`` that leave a line quote-free and one row wide."""
    return strategy.filter(
        lambda text: not any(c in text for c in (delimiter, '"', "\r", "\n"))
    )


@st.composite
def bulk_files(draw):
    """``(text, bom, load_csv keyword arguments)`` of one file the bulk cut
    takes: unique header names, every row as wide as the header."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    names = draw(st.sampled_from([NAMES, ("uid", "latitude", "longitude", "ts")]))
    unread = draw(st.lists(st.none(), max_size=2))
    layout = draw(st.permutations(list(range(4)) + unread))
    header = [
        f"extra{k}" if slot is None else names[slot] for k, slot in enumerate(layout)
    ]
    odd = ODD.map(lambda c: f"a{c}b")
    good = [
        st.one_of(ENTITIES, odd),
        st.one_of(GOOD_LATS, ODD_NUMBERS),
        st.one_of(GOOD_LNGS, ODD_NUMBERS),
        GOOD_TIMES,
    ]
    bad = {1: BAD_LATS, 2: BAD_LNGS, 3: BAD_TIMES}
    extras = cell(st.one_of(EXTRAS, odd, ODD), delimiter)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [delimiter.join(header)]
    for kind in draw(st.lists(st.sampled_from(["clean"] * 3 + ["bad", "blank"]))):
        if kind == "blank":
            lines.append("")
            continue
        cells = [draw(cell(strategy, delimiter)) for strategy in good]
        if kind == "bad":
            for column in draw(st.sets(st.sampled_from(sorted(bad)), min_size=1)):
                cells[column] = draw(cell(bad[column], delimiter))
        row = [draw(extras) if slot is None else cells[slot] for slot in layout]
        lines.append(delimiter.join(row))
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    keywords = {"delimiter": delimiter}
    if names is not NAMES:
        parameters = ("entity_column", "lat_column", "lng_column", "time_column")
        keywords.update(zip(parameters, names))
    return text, draw(st.booleans()), keywords


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory)


class TestBulkCut:
    @pytest.mark.parametrize("slice_rows", [data_io._SLICE_ROWS, 2])
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(generated=bulk_files())
    def test_same_outcome_as_the_scalar_reader(
        self, scratch, monkeypatch, slice_rows, generated
    ):
        monkeypatch.setattr(data_io, "_SLICE_ROWS", slice_rows)
        text, bom, keywords = generated
        path = scratch / "generated.csv"
        # The oracle reads a byte-order mark into its first header name, so
        # it is handed the same file without one.
        path.write_text(text, encoding="utf-8", newline="")
        expected = {
            mode: outcome(scalar_load_csv, path, on_error=mode, **keywords)
            for mode in ("skip", "raise")
        }
        path.write_text("\ufeff" * bom + text, encoding="utf-8", newline="")
        for mode in ("skip", "raise"):
            with watched_reader() as calls:
                result = outcome(load_csv, path, on_error=mode, **keywords)
            assert result == expected[mode]
            header = text.split("\r")[0].split("\n")[0]
            assert [drawn for _, drawn in calls] == [[header]]

    def test_a_flagged_row_is_explained_from_its_line(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_bytes(
            "\ufeffentity;lat;lng;timestamp\r\n"
            "a\x85b;1;2;10\r\r\n\n"
            "a\u2028b;95;2;20\r"
            "c\x0bd;1;2;never\n"
            "c\x0bd;1\x1c;2;30".encode("utf-8")
        )
        with watched_reader() as calls:
            dataset, report = load_csv(path, delimiter=";", on_error="skip")
        assert [drawn for _, drawn in calls] == [["entity;lat;lng;timestamp"]]
        assert dataset.entities == ["a\x85b"]
        rows = [(row.line, row.reason.split(":")[0], row.raw) for row in report.rows]
        assert rows == [
            (5, "latitude out of range", "a\u2028b;95;2;20"),
            (6, "malformed", "c\x0bd;1;2;never"),
            (7, "malformed", "c\x0bd;1\x1c;2;30"),
        ]
        with pytest.raises(ValueError, match=r"odd.csv:5: latitude out of range"):
            load_csv(path, delimiter=";")


GOOD_ROW = "a,37.7,-122.4,1500000000"


class TestFallback:
    """Each way out of the bulk cut, on a file that is otherwise bulk."""

    def check(self, path, **keywords):
        """The ``on_error="skip"`` outcome, once both modes agree with the
        oracle through ``csv.reader`` over the open file."""
        for mode in ("raise", "skip"):
            expected = outcome(scalar_load_csv, path, on_error=mode, **keywords)
            with watched_reader() as calls:
                assert outcome(load_csv, path, on_error=mode, **keywords) == expected
            ((source, _),) = calls
            assert hasattr(source, "readline"), "csv.reader must read the file"
        return expected

    def write(self, tmp_path, text):
        path = tmp_path / "fallback.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return path

    @pytest.mark.parametrize(
        "row",
        ['"a,b",37.7,-122.4,1500000000', 'a"b,37.7,-122.4,1500000000'],
        ids=["quoted", "stray"],
    )
    def test_a_quote(self, tmp_path, row):
        path = self.write(tmp_path, f"entity,lat,lng,timestamp\r\n{row}\r\n")
        self.check(path)

    def test_a_short_row_and_a_long_row(self, tmp_path):
        """Together they hold the right number of delimiters for the file,
        so only a per-line count sees them."""
        path = self.write(
            tmp_path,
            f"entity,lat,lng,timestamp\n{GOOD_ROW}\na,37.7,-122.4\n{GOOD_ROW},x\n",
        )
        _, _, (loaded, rows) = self.check(path)
        assert loaded == 2 and [row.line for row in rows] == [3]

    def test_a_repeated_header_name(self, tmp_path):
        path = self.write(
            tmp_path, f"lat,entity,lat,lng,timestamp\n95,{GOOD_ROW}\n1,b,95,0,1\n"
        )
        _, columns, _ = self.check(path)
        assert [entity for entity, _ in columns] == ["a"]

    @pytest.mark.parametrize("limit", [20, 9], ids=["line", "field"])
    def test_a_line_over_the_field_size_limit(self, tmp_path, limit):
        path = self.write(tmp_path, f"entity,lat,lng,timestamp\n{GOOD_ROW}\n")
        before = csv.field_size_limit(limit)
        try:
            result = self.check(path)
        finally:
            csv.field_size_limit(before)
        if limit == 9:
            assert result == (csv.Error, "field larger than field limit (9)")

    def test_an_empty_file(self, tmp_path):
        assert self.check(self.write(tmp_path, ""))[0] is ValueError

    def test_a_blank_first_line(self, tmp_path):
        path = self.write(tmp_path, f"\nentity,lat,lng,timestamp\n{GOOD_ROW}\n")
        assert self.check(path)[0] is ValueError

    def test_a_two_character_delimiter(self, tmp_path):
        path = self.write(tmp_path, f"entity,lat,lng,timestamp\n{GOOD_ROW}\n")
        assert self.check(path, delimiter=",,")[0] is TypeError
