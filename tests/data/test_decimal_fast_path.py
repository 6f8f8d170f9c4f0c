"""The bulk route's exact decimal parse against ``float()``, bit for bit.

``repro.data.io._decimals`` reads a cell matching ``-?d*(.d*)?`` with 1 to
15 digits as its integer mantissa over ``10 ** k`` — one correctly rounded
division of two exact doubles — and leaves every other cell NaN for the
per-cell parser.  Generated cells cover 1 to 17 digits with the point
anywhere, the 15 / 16 digit and 2 ** 53 boundaries, leading zeros, signed
zeros, a lone sign or point and POSIX timestamps with milliseconds; each
batch is cut from one byte string, so cells of one width and layout are
parsed together and cells of others beside them.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.io as data_io

PLAIN = re.compile(r"-?[0-9]*(\.[0-9]*)?")

EDGES = [
    "-0", "-0.0", "0", "0.", ".0", ".5", "5.", "-.5", "-5.", "-", ".", "-.",
    "1.2.3", "--1", "+1", "1e3", " 1", "1 ", "1_0", "", "00", "007.50",
    "1200000281.858", "1500000000", "999999999999999", "99999999999999.9",
    ".999999999999999", "1000000000000000", "9007199254740993",
    "900719925474099.3", "0.000000000000001", "0000000000000001.5",
    "-122.4821242", "37.8384639", "１２", "1٣",
]


def expected(cell):
    """``float(cell)``'s bits where the fast path must take the cell, NaN
    where it must leave it to the per-cell parser."""
    digits = sum(c.isdigit() for c in cell)
    if PLAIN.fullmatch(cell) and 1 <= digits <= 15:
        return float(cell)
    return math.nan


def parse(cells):
    """``_decimals`` of ``cells`` as cut from one ``,``-joined byte string."""
    encoded = [cell.encode() for cell in cells]
    data = b",".join(encoded)
    widths = np.array([len(cell) for cell in encoded], dtype=np.intp)
    starts = np.cumsum(np.r_[0, widths[:-1] + 1]).astype(np.intp)
    return data_io._decimals(data, starts, starts + widths)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def decimals(draw):
    """A plain decimal of 1 to 17 digits, its point anywhere or nowhere."""
    digits = draw(st.text("0123456789", min_size=1, max_size=17))
    point = draw(st.none() | st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-"]))
    if point is None:
        return sign + digits
    return sign + digits[:point] + "." + digits[point:]


@st.composite
def near(draw, pivot):
    """An integer a few units from ``pivot``, its point anywhere."""
    digits = str(draw(st.integers(max(pivot - 50, 0), pivot + 50)))
    point = draw(st.integers(0, len(digits)))
    return draw(st.sampled_from(["", "-"])) + digits[:point] + "." + digits[point:]


TIMESTAMPS = st.builds(
    "{}.{:03d}".format, st.integers(10**9, 2 * 10**9), st.integers(0, 999)
)
CELLS = st.one_of(
    decimals(),
    near(10**15),
    near(2**53),
    near(10**14),
    TIMESTAMPS,
    st.sampled_from(EDGES),
)


class TestDecimals:
    @pytest.mark.parametrize("cell", EDGES)
    def test_an_edge_alone(self, cell):
        assert bits(parse([cell])) == bits([expected(cell)])

    def test_the_edges_together(self):
        assert bits(parse(EDGES)) == bits(list(map(expected, EDGES)))

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(CELLS, min_size=1, max_size=40))
    def test_float_bits_or_left_to_the_parser(self, cells):
        assert bits(parse(cells)) == bits(list(map(expected, cells)))

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        places=st.integers(0, 9),
    )
    def test_formatted_floats(self, value, places):
        """Cells as ``save_csv`` formats them (``f"{x:.7f}"``, ``.3f``)."""
        cell = f"{value:.{places}f}"
        assert bits(parse([cell])) == bits([expected(cell)])

    def test_every_other_cell_still_reaches_the_parser(self, tmp_path):
        """A cell the fast path leaves is parsed as ``float()`` parses it."""
        path = tmp_path / "odd.csv"
        path.write_text(
            "entity,lat,lng,timestamp\n"
            "a,+1.5,1e1, 1500000000 \n"
            "a,1_0,１２,2017-07-14T02:40:00Z\n"
            "a,-0,-0.0,-.5\n"
        )
        _, lats, lngs = data_io.load_csv(path).columns("a")
        assert bits(lats) == bits([-0.0, 1.5, 10.0])
        assert bits(lngs) == bits([-0.0, 10.0, 12.0])
