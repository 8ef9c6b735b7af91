"""The trajectory writer's float formatter against printf.

``random_effects._csv_lines`` formats fixed-notation cells by array
arithmetic, placing each cell's bytes with 64-bit word masks by its layout
(decimal exponent, fraction length and sign), and hands every other cell to
printf (every cell, where those are most of them). So each test compares
its bytes with ``b"%.17g" % v`` joined by ',' and ended by CRLF: on any
float Hypothesis draws, on any bit pattern read as a double, on a table of
the values where the arithmetic can go wrong (exponent boundaries,
integer-valued floats, rounding ties), on either side of the switch to
printf for every cell, and on one cell of every layout the array path can
reach, mid-line, at a line's end and before a printf cell. One more test
bounds the memory of one pass.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from blockgibbs.random_effects import _csv_lines


def printf_lines(rows) -> bytes:
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in rows)


def assert_matches_printf(values) -> None:
    """Check ``values`` as one line, and as one cell per line."""
    values = [float(v) for v in values]
    assert _csv_lines(np.array([values])) == printf_lines([values])
    assert _csv_lines(np.array(values)[:, None]) == printf_lines([[v] for v in values])


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_prints_as_printf(values):
    # st.floats() draws nan, +-inf, +-0 and subnormals as well
    assert_matches_printf(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_finite_bit_pattern_prints_as_printf(words):
    values = np.array(words, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    if values.size:
        assert_matches_printf(values)


def ties():
    """Doubles x with x * 10**k exactly halfway between two integers, where
    10**(16 - k) <= x < 10**(17 - k): the last of their 17 digits is a
    round-half-even tie. x = M / 2**(k + 1) with M odd, so that
    x * 10**k = M * 5**k / 2 has an odd numerator."""
    out = []
    for k in range(1, 22):
        lo = math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1))
        hi = min(math.floor(Fraction(10) ** (17 - k) * 2 ** (k + 1)), 2**53 - 1)
        for m in (lo, (lo + hi) // 2, hi - 1):
            m |= 1
            x = math.ldexp(m, -(k + 1))
            assert (Fraction(x) * 10**k).denominator == 2
            out.append(x)
    return out


def boundary_table():
    powers = [10.0**k for k in range(-5, 18)]
    values = [
        *powers,
        *(np.nextafter(p, 0.0) for p in powers),
        *(np.nextafter(p, math.inf) for p in powers),
        1e-4,
        np.nextafter(1e17, 0.0),
        *np.arange(1e15, 1e15 + 64),
        *np.arange(1e16, 1e16 + 64 * 2, 2),
        *np.arange(1e17 - 64 * 16, 1e17, 16),
        *np.random.default_rng(0).integers(10**15, 10**17, 512).astype(float),
        *(float(10**k * j) for k in range(15, 17) for j in range(1, 10)),
        *ties(),
        0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
        math.inf, math.nan,
    ]
    return values + [-v for v in values]


def test_boundary_table_prints_as_printf():
    # the integer-valued floats in [1e15, 1e17) keep their trailing zeros,
    # and the ties round to even; random draws almost never hit either
    assert_matches_printf(boundary_table())


def test_either_side_of_the_printf_share_prints_as_printf():
    # k of 10 cells off the fixed notation: up to 5 the array path formats
    # the rest, from 6 printf formats the whole line
    plain = [1.5, -2.25e-4, 123456.789, 1e16 + 2, 0.1, 7.0, -1e-4, 3e-3, 9.75, 42.0]
    off = [0.0, -1e-5, 1e20, 5e-324, math.nan, -math.inf, 1e-300, -0.0, 1e17, 2e-4 / 3]
    for k in range(11):
        assert_matches_printf(off[:k] + plain[k:])


def layout_values():
    """One positive double for each layout row the array path can reach:
    printf writes it in fixed notation with decimal exponent d in [-4, 16]
    and ``keep`` fraction digits. Below 1 the first nonzero digit is
    fraction digit -d, so keep >= -d there: 221 layouts in all. Each is the
    first value lead 0...0 last x 10**(d - s + 1), s = keep + d + 1
    significant digits, that prints so."""
    out = []
    for d in range(-4, 17):
        for keep in range(max(0, -d), 17 - d):
            s = keep + d + 1
            candidates = (float(f"{lead}{'0' * (s - 2)}{last}e{d - s + 1}") if s > 1 else float(f"{lead}e{d}")
                          for lead in range(1, 10) for last in range(1, 10))
            out.append(next(x for x in candidates if fixed_shape(x) == (d, keep)))
    return out


def fixed_shape(x):
    """(decimal exponent, fraction digits) of a positive double as printf
    writes it, or None in exponent form."""
    text = "%.17g" % x
    if "e" in text:
        return None
    whole, _, fraction = text.partition(".")
    if whole != "0":
        return len(whole) - 1, len(fraction)
    return len(fraction.lstrip("0")) - len(fraction) - 1, len(fraction)


def test_every_layout_row_prints_as_printf():
    # each sign of each reachable (exponent, fraction length) layout, mid-row
    # and as a line's last cell; then each printf cell as the last cell of a
    # line the array path writes, behind a cell of every layout
    values = layout_values()
    assert len(values) == 221
    cells = values + [-v for v in values]
    assert_matches_printf(cells)
    for special in (0.0, 1e-5, math.inf, math.nan):
        # one printf cell in three, so the array path writes every line
        lines = np.column_stack([cells, cells[::-1], np.full(len(cells), special)])
        assert _csv_lines(lines) == printf_lines(lines.tolist())


def test_one_pass_holds_under_200_bytes_a_cell():
    # one 61 x 67 pass of the sim-wide writer: the byte rows, the digit
    # groups and the output together; a cells x 26 int64 index of source
    # bytes alone held 208 bytes a cell
    rng = np.random.default_rng(9)
    cells = rng.normal(size=(61, 67)) * 10.0 ** rng.integers(-3, 4, size=(61, 67))
    cells[:, 0] = np.arange(61)
    _csv_lines(cells)
    tracemalloc.start()
    try:
        text = _csv_lines(cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == printf_lines(cells.tolist())
    assert peak < 200 * cells.size, peak
