"""A CSV row that lacks only its timestamp cell is an ordinary malformed
row: ``source:line: malformed row: …`` under ``on_error="raise"``, a
quarantined ``malformed: …`` row under ``"skip"`` — not an
``AttributeError`` from parsing ``None``.  The scalar oracle agrees."""

import pytest
from scalar_reader import scalar_load_csv

from repro.data import load_csv


@pytest.fixture
def short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "entity,lat,lng,timestamp\n"
        "a,37.7,-122.4,1500000000\n"
        "b,37.7,-122.4\n"
        "c,37.8,-122.3,1500000600\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("reader", [load_csv, scalar_load_csv])
def test_raise_names_the_row(short_row, reader):
    with pytest.raises(ValueError) as raised:
        reader(short_row)
    assert str(raised.value) == f"{short_row}:3: malformed row: missing timestamp"


@pytest.mark.parametrize("reader", [load_csv, scalar_load_csv])
def test_skip_quarantines_the_row(short_row, reader):
    dataset, report = reader(short_row, on_error="skip")
    assert dataset.entities == ["a", "c"]
    assert report.loaded == 2
    assert [(row.line, row.reason, row.raw) for row in report.rows] == [
        (3, "malformed: missing timestamp", "b,37.7,-122.4,")
    ]
