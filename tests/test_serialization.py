"""CSV serialization: the bulk table formatter and lossless CLI cells."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revivals.carpets import CarpetGrid, _table_text, grid_to_csv
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


def _per_cell(columns):
    """Reference: format(float(v), ".17g") cell by cell, as ASCII bytes."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    lines = []
    for i in range(len(columns[0])):
        cells = [v for c in columns for v in np.atleast_1d(c[i])]
        lines.append(",".join(format(float(v), ".17g") for v in cells) + "\n")
    return "".join(lines).encode("ascii")


def _assert_cells_match(values, width=3):
    """_table_text of the values laid out width to a row equals format() per cell."""
    values = np.asarray(values, dtype=np.float64).ravel()
    block = values[: values.size - values.size % width].reshape(-1, width)
    lines = _table_text([block]).decode("ascii").splitlines()
    assert len(lines) == block.shape[0]
    for line, row in zip(lines, block):
        assert line == ",".join(format(float(v), ".17g") for v in row), row.tolist()


def _with_neighbours(values, ulps=1):
    """The values, their negatives and their float64 neighbours up to ulps away."""
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


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
    first = [line.split(",")[0] for line in text.decode("ascii").splitlines()]
    assert first[:9] == [
        "-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324",
        "1.7976931348623157e+308", "-1.7976931348623157e+308", "10000000000000000",
    ]


def test_table_text_integer_index_columns():
    # Row indices need no column type: %.17g prints an integral float below
    # 1e17 as %d would.
    values = np.array(SPECIAL)
    index = np.arange(values.size)
    columns = [index, values, values / 3.0]
    text = _table_text(columns)
    assert text == _per_cell(columns)
    assert [line.split(",")[0] for line in text.decode("ascii").splitlines()] == [
        str(j) for j in range(values.size)
    ]


def test_table_text_two_dimensional_block_and_edge_shapes():
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, 7)
    density = rng.random((7, 5)) ** 9
    columns = [t, 2.0 * t / math.pi, density]
    text = _table_text(columns)
    assert text == _per_cell(columns)
    assert all(len(line.split(b",")) == 7 for line in text.splitlines())
    # One row of scalars (the talbot table) and a table with no rows.
    assert _table_text([[0.6], [1.0], [1.0 / 3.0]]) == b"0.59999999999999998,1,0.33333333333333331\n"
    assert _table_text([np.empty(0), np.empty(0)]) == b""


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    width=st.integers(1, 5),
)
def test_table_text_matches_format_on_raw_bit_patterns(bits, width):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_cells_match(values, width=min(width, values.size))


def test_table_text_matches_format_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(2019)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    _assert_cells_match(bits.view(np.float64), width=7)


def test_table_text_matches_format_at_table_magnitudes():
    # Random significands over the fixed-notation decades and their edges.
    rng = np.random.default_rng(7)
    size = 200_000
    values = rng.random(size) * 10.0 ** rng.integers(-7, 19, size) * rng.choice([-1.0, 1.0], size)
    _assert_cells_match(values, width=4)


def test_table_text_matches_format_at_powers_of_ten_and_switch_points():
    powers = [float(f"1e{k}") for k in range(-300, 301)]   # each the float nearest 10^k
    _assert_cells_match(_with_neighbours(powers))
    # %g's switches between fixed and exponent notation, several ulps around.
    _assert_cells_match(_with_neighbours([1e-5, 1e-4, 1e16, 1e17], ulps=4), width=2)
    # Edges of the vectorised range.
    _assert_cells_match(_with_neighbours([1e-280, 1e280, 2.2250738585072014e-308], ulps=3))


def test_table_text_settles_exact_ties_half_even():
    # q / 2^d with q odd and 5^d q of 18 digits ends its decimal expansion in a
    # 5 at the 18th digit: an exact tie of the 17-digit rounding.
    rng = np.random.default_rng(11)
    ties = [1234567890123456.25, 1234567890123456.75, 123456789012345.625]
    for d in range(2, 23):
        lo, hi = -(-(10**17) // 5**d), min(2**53, 10**18 // 5**d)
        for q in rng.integers(lo, hi, size=40).tolist():
            q |= 1
            if q < hi:
                ties.append(q / 2**d)
    for v in ties:
        digits = Decimal(v).as_tuple().digits   # the exact binary value
        assert len(digits) == 18 and digits[-1] == 5
    assert format(1234567890123456.25, ".17g") == "1234567890123456.2"
    assert format(1234567890123456.75, ".17g") == "1234567890123456.8"
    _assert_cells_match(_with_neighbours(ties), width=5)


def test_table_text_matches_format_on_integers_subnormals_and_specials():
    rng = np.random.default_rng(3)
    integers = np.concatenate([
        np.arange(-2000, 2000),
        rng.integers(0, 2**60, size=5000),
        2 ** np.arange(61),
        10 ** np.arange(19),
    ]).astype(np.float64)
    _assert_cells_match(integers, width=4)
    subnormal_bits = rng.integers(1, 2**52, size=5000, dtype=np.uint64)
    subnormals = np.concatenate([subnormal_bits.view(np.float64), [5e-324, -5e-324]])
    _assert_cells_match(subnormals, width=2)
    _assert_cells_match([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf], width=6)
    assert _table_text([[-0.0], [0.0]]) == b"-0,0\n"


def test_carpet_csv_header_prints_the_x_axis_at_17_digits():
    grid = CarpetGrid(
        x_min=-7.5, x_max=6.5, t_min=0.1, t_max=1.3, density=np.ones((3, 60))
    )
    header = grid_to_csv(grid, chi=2.0).decode("ascii").splitlines()[0]
    assert header == "t,chi_t_over_pi" + "".join(
        ",x=" + format(float(x), ".17g") for x in np.linspace(-7.5, 6.5, 60)
    )


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
