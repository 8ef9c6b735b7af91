"""The trajectory writer's float formatter against printf.

``random_effects._csv_lines`` formats fixed-notation cells by array
arithmetic and hands every other cell to printf (every cell, where those
are most of them), so each test compares its bytes with ``b"%.17g" % v``
joined by ',' and ended by CRLF: on any float Hypothesis draws, on any bit
pattern read as a double, on a table of the values where the arithmetic
can go wrong (exponent boundaries, integer-valued floats, rounding ties),
and on either side of the switch to printf for every cell.
"""

import math
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
