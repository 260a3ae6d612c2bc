"""CSV serialization: the bulk table formatter and lossless CLI cells."""

import math

import numpy as np
import pytest

from revivals.carpets import _table_text
from revivals.cli import main

SPECIAL = [
    -0.0,
    0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e16,
    1.0 / 3.0,
    -2.5,
    123456789.0,
]


def _per_cell(columns, integer_columns=0):
    """Reference: str(int(v)) per index cell, format(float(v), ".17g") per other cell."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    lines = []
    for i in range(len(columns[0])):
        cells = [v for c in columns for v in np.atleast_1d(c[i])]
        text = [str(int(v)) for v in cells[:integer_columns]]
        text += [format(float(v), ".17g") for v in cells[integer_columns:]]
        lines.append(",".join(text) + "\n")
    return "".join(lines)


def test_table_text_matches_per_cell_format_on_special_values():
    rng = np.random.default_rng(5)
    special = np.array(SPECIAL)
    columns = [
        special,
        special[::-1],
        rng.permutation(special),
        rng.standard_normal(special.size) * 10.0 ** rng.integers(-300, 300, special.size),
    ]
    text = _table_text(columns)
    assert text == _per_cell(columns)
    first = [line.split(",")[0] for line in text.splitlines()]
    assert first[:9] == [
        "-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324",
        "1.7976931348623157e+308", "-1.7976931348623157e+308", "10000000000000000",
    ]


def test_table_text_integer_index_columns():
    values = np.array(SPECIAL)
    index = np.arange(values.size)
    columns = [index, values, values / 3.0]
    text = _table_text(columns, integer_columns=1)
    assert text == _per_cell(columns, integer_columns=1)
    assert [line.split(",")[0] for line in text.splitlines()] == [
        str(j) for j in range(values.size)
    ]


def test_table_text_two_dimensional_block_and_edge_shapes():
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, 7)
    density = rng.random((7, 5)) ** 9
    columns = [t, 2.0 * t / math.pi, density]
    text = _table_text(columns)
    assert text == _per_cell(columns)
    assert all(len(line.split(",")) == 7 for line in text.splitlines())
    # One row of scalars (the talbot table) and a table with no rows.
    assert _table_text([[0.6], [1.0], [1.0 / 3.0]]) == "0.59999999999999998,1,0.33333333333333331\n"
    assert _table_text([np.empty(0), np.empty(0)]) == ""


CSV_COMMANDS = [
    ["autocorr", "--samples", "33", "--spectrum", "square_well"],
    ["moment", "--r", "1", "--s", "2", "--samples", "33"],
    *(["xptrace", "--observable", name, "--samples", "33"] for name in ("x", "p", "x2", "p2", "dxdp")),
    ["lx", "--n", "3", "--samples", "33"],
    ["carpet", "--nx", "12", "--nt", "9"],
    ["pendulum", "--count", "17", "--at", "0.25"],
    ["talbot", "--wavelength", "0.6", "--grating-period", "1.0"],
    ["cat", "--m", "3"],
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_every_csv_data_cell_round_trips(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["-o", "out.csv"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header, rows = data[0].split(","), data[1:]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header)
        for cell in cells:
            assert format(float(cell), ".17g") == cell
