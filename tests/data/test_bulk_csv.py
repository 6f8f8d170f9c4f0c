"""``load_csv``'s bulk cut against the scalar reader, and every way out of it.

A quote-free file whose non-blank lines all hold the header's number of
delimiters is cut into columns straight from its ``"\\n"``-split text;
``csv.reader`` then reads its header line and nothing else.  Generated
files of that kind — mixed ``\\n`` / ``\\r\\n`` / lone ``\\r`` line ends, a
byte-order mark, blank lines anywhere after the header, no final newline,
the bad cells of ``test_columnar_reader.py``, cells holding characters
``str.splitlines`` would break a line on, plain decimals at the edges of
the exact fast path, entity names that share a prefix or a width, and
multibyte delimiters — must load exactly as
``scalar_reader.scalar_load_csv`` loads them.  Every file the bulk cut
does not take must reach ``csv.reader`` over the open file and still
match the oracle, exception class and text included.  A ``save_csv``
file takes the cut without a per-cell parse, a per-row entity list or
more than one decoded entity text per entity, whatever the row order.
"""

import csv
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
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
from repro.data import LocationDataset, Record, load_csv, save_csv

# Characters ``str.splitlines`` ends a line on and ``csv.reader`` does not.
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD = st.sampled_from(SPLITLINES_ONLY)
ODD_NUMBERS = st.sampled_from(["\x8512.5", "\u202812", "\x0b-3.5", "1\x1c", "7\x85"])
# Plain decimals at the edges of the exact fast path (1-15 digits), and
# cells one step past it that ``float()`` must still read.
PLAIN_LATS = st.sampled_from(
    [
        "-0", "-0.0", ".5", "5.", "-.5", "007.50", "37.8384639",
        "89.99999999999999", "0.000000000000001", "0000000000000001.5",
    ]
)
PLAIN_LNGS = st.sampled_from(
    [
        "-122.4821242", "-0", "180.", "-.5", "179.999999999999", "-00.0",
        "12.3456789012345",
    ]
)
PLAIN_TIMES = st.sampled_from(
    [
        "1200000281.858", "1500000000.", "9007199254740993", "900719925474099.3",
        "-0.0", ".5", "1500000000.000000",
    ]
)
NOT_PLAIN = st.sampled_from(["-", ".", "-.", "1.2.3", "--1", "1-", "1..5"])
# Entity names that share a prefix, a width or all but their last byte.
RUN_NAMES = st.sampled_from(["ab", "abc", "abd", "zoë", "zoé", "ζ", "user1", "user2"])


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
    delimiter = draw(st.sampled_from([",", ";", "\t", "|", "§", "→"]))
    names = draw(st.sampled_from([NAMES, ("uid", "latitude", "longitude", "ts")]))
    unread = draw(st.lists(st.none(), max_size=2))
    layout = draw(st.permutations(list(range(4)) + unread))
    header = [
        f"extra{k}" if slot is None else names[slot] for k, slot in enumerate(layout)
    ]
    odd = ODD.map(lambda c: f"a{c}b")
    good = [
        st.one_of(ENTITIES, odd, RUN_NAMES),
        st.one_of(GOOD_LATS, ODD_NUMBERS, PLAIN_LATS),
        st.one_of(GOOD_LNGS, ODD_NUMBERS, PLAIN_LNGS),
        st.one_of(GOOD_TIMES, PLAIN_TIMES),
    ]
    bad = {
        1: st.one_of(BAD_LATS, NOT_PLAIN),
        2: st.one_of(BAD_LNGS, NOT_PLAIN),
        3: st.one_of(BAD_TIMES, NOT_PLAIN),
    }
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


class TestEntityRuns:
    """Rows of one entity in a row are one run, and equal runs one text,
    decoded once; these files put runs side by side that a byte
    comparison could confuse."""

    RUNS = {
        "interleaved": ["A", "B"] * 6,
        "shared prefix": ["ab", "abc", "abc", "abd", "ab", "a", "abc"],
        "last byte": ["user1", "user2", "user2", "user1", "user3", "user3"],
        "multibyte": ["zoë", "zoé", "zoé", "zoë", "ζ", "ζ", "z"],
        "empty name": ["", "a", "", "", "a", ""],
        "past one word": [
            "entity-0000001", "entity-0000002", "entity-0000001",
            "entity-00000010", "e", "entity-0000002", "entity-00000010",
        ],
    }

    @pytest.mark.parametrize("names", RUNS.values(), ids=list(RUNS))
    @pytest.mark.parametrize("delimiter", [",", "§"])
    def test_same_outcome_as_the_scalar_reader(self, tmp_path, names, delimiter):
        path = tmp_path / "runs.csv"
        rows = [
            delimiter.join([name, f"{k}.5", f"-{k}.25", str(1000 - k % 3)])
            for k, name in enumerate(names)
        ]
        header = delimiter.join(NAMES)
        path.write_text("\r\n".join([header, *rows]) + "\r\n", encoding="utf-8")
        for mode in ("skip", "raise"):
            keywords = {"on_error": mode, "delimiter": delimiter}
            expected = outcome(scalar_load_csv, path, **keywords)
            with watched_reader() as calls:
                result = outcome(load_csv, path, **keywords)
            assert result == expected
            assert [drawn for _, drawn in calls] == [[header]]
        assert [entity for entity, _ in result[1]] == list(dict.fromkeys(names))


class TestRouteGuard:
    def test_a_save_csv_file_builds_no_object_per_cell_or_row(
        self, tmp_path, monkeypatch
    ):
        """The per-cell parser runs zero times, no per-row entity list
        reaches ``LocationDataset``, and each entity's text is decoded
        once: ``save_csv`` writes an entity's rows as one run."""
        rng = np.random.default_rng(5)
        records = [
            Record(f"taxi{k % 7}", *rng.uniform(-60, 60, 2).tolist(), 1.2e9 + 7 * k)
            for k in range(3000)
        ]
        dataset = LocationDataset.from_records(records)
        path = tmp_path / "saved.csv"
        save_csv(dataset, path)

        parsed, texts, built = [], [], []

        def counted(parse):
            def spy(cell):
                parsed.append(cell)
                return parse(cell)

            return spy

        real_decoded = data_io._decoded

        def decoded(*args):
            out = real_decoded(*args)
            texts.extend(out)
            return out

        from_columns = LocationDataset.from_columns.__func__

        def spy_columns(cls, entities, *args, **kwargs):
            built.append(len(entities))
            return from_columns(cls, entities, *args, **kwargs)

        monkeypatch.setattr(data_io, "_PARSERS", tuple(map(counted, data_io._PARSERS)))
        monkeypatch.setattr(data_io, "_decoded", decoded)
        monkeypatch.setattr(LocationDataset, "from_columns", classmethod(spy_columns))
        loaded = load_csv(path)
        assert (parsed, built) == ([], [])
        assert texts == dataset.entities
        monkeypatch.undo()
        assert outcome(load_csv, path) == outcome(scalar_load_csv, path)
        assert loaded.entities == dataset.entities

    def test_a_shuffled_file_decodes_each_entity_once(self, tmp_path, monkeypatch):
        """Rows whose entities interleave are one run each, yet each
        distinct entity's bytes are decoded into one text, once."""
        rng = np.random.default_rng(8)
        names = ["taxi1", "taxi2", "taxi10", "zoë", "zoé", "ζ", "t"]
        records = [
            Record(names[k % 7], *rng.uniform(-60, 60, 2).tolist(), 1.2e9 + k // 3)
            for k in range(2000)
        ]
        saved = tmp_path / "saved.csv"
        save_csv(LocationDataset.from_records(records), saved)
        header, *rows = saved.read_text(encoding="utf-8").splitlines()
        rng.shuffle(rows)
        path = tmp_path / "shuffled.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

        texts = []
        real_decoded = data_io._decoded

        def decoded(*args):
            out = real_decoded(*args)
            texts.extend(out)
            return out

        monkeypatch.setattr(data_io, "_decoded", decoded)
        loaded = outcome(load_csv, path)
        first_seen = list(dict.fromkeys(row.split(",")[0] for row in rows))
        assert texts == first_seen
        monkeypatch.undo()
        assert loaded == outcome(scalar_load_csv, path)
