"""Exact-arithmetic witness of the stationary solve: each distinct core's
square solve (``Kernel.core_stationary``) and each kernel's stationary law
(``analysis.stationary``) against the laws the paper names, on the
``fractions.Fraction`` pmf of ``test_read_coordinates_exact``.

The block core reads z, so its law is P(Z); the rotated core reads (x, y),
so its law is P(X, Y); the out-of-order core reads (z, x), and its law is
the (Z, X) marginal of pi_star, which pi_star shares with the pmf.

Tolerance: the exact laws are rounded once to float64 here. The package
solves a square system of at most 6 x 6 (the rotated core on nx * ny = 6
states), core^T - I with its last row replaced by ones, whose entries are
within a few units in the last place of exact. LU with partial pivoting
adds a backward error of a few units in the last place per entry at this
size, and the solution moves by at most that times the condition number,
under 10 here (checked below). So every entry, each at most 1, is within
6 * 10 * 2**-52 * (a few) < 1e-14 of exact; measured, the largest gap is
5.6e-17.
"""

import numpy as np
import pytest

from blockgibbs import (
    StateCodec,
    block_kernel,
    marginal_xy_kernel,
    marginal_z_kernel,
    ooo_kernel,
    rotated_block_kernel,
    stationary,
)
from test_kernel_updates_exact import PMF, exact_pi_star, on_codec
from test_read_coordinates_exact import P, mass

TOL = 1e-14
STAR = exact_pi_star(P)


def exact_law(law, labels) -> np.ndarray:
    """The marginal of a law over (x, y, z) on ``labels``, summed exactly,
    as a float vector in that codec's order."""
    codec = StateCodec.for_labels(PMF, labels)
    out = np.zeros(codec.size)
    for key, m in mass(law, tuple("XYZ".index(lab) for lab in labels)).items():
        out[codec.encode(key)] = float(m)
    return out


@pytest.mark.parametrize(
    "factory, law, labels",
    [(block_kernel, P, "Z"), (rotated_block_kernel, P, "XY"), (ooo_kernel, STAR, "ZX")],
    ids=["block P(Z)", "rotated P(X,Y)", "ooo pi_star(Z,X)"],
)
def test_core_solve_is_the_exact_law_of_the_read_coordinates(factory, law, labels):
    kernel = factory(PMF)
    want = exact_law(law, labels)
    assert kernel.core.shape == (want.size, want.size)
    square = kernel.core.T - np.eye(want.size)
    square[-1] = 1.0
    assert np.linalg.cond(square) < 10  # the tolerance's premise
    np.testing.assert_allclose(kernel.core_stationary, want, rtol=0, atol=TOL)


@pytest.mark.parametrize(
    "factory, law, labels",
    [
        (block_kernel, P, None),
        (rotated_block_kernel, P, None),
        (ooo_kernel, STAR, None),
        (marginal_xy_kernel, P, "XY"),
        (marginal_z_kernel, P, "Z"),
    ],
    ids=["block", "rotated", "ooo", "marginal_xy", "marginal_z"],
)
def test_stationary_law_is_the_exact_target(factory, law, labels):
    # the sweeps keep the pmf (the out-of-order one pi_star) on their own
    # codec, and the marginal chains its marginal on theirs
    kernel = factory(PMF)
    want = on_codec(law, kernel.codec) if labels is None else exact_law(law, labels)
    v, residual = stationary(kernel)
    np.testing.assert_allclose(v, want, rtol=0, atol=TOL)
    assert residual <= TOL
