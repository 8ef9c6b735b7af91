"""Exact-arithmetic witness of the read-coordinate distances in
``check_prop1``.

Every sweep ends with a conditional update that its target shares, so the
total variation over all states equals the total variation over the
coordinates that last update reads: (x, y) for block, z for rotated,
(y, z) for out-of-order. Here the sweeps are products of the three
single-coordinate update operators in ``fractions.Fraction``, sharing
nothing with ``blockgibbs.kernels``, and that identity, both inequality
chains and ``check_prop1``'s curves are checked against them.
"""

import itertools
from fractions import Fraction

import numpy as np

from blockgibbs import Dims, JointPmf3, check_prop1

NX, NY, NZ = 2, 3, 2
STATES = list(itertools.product(range(NX), range(NY), range(NZ)))  # (x, y, z)
#: Weights out of 64, so the float pmf given to check_prop1 is this pmf
#: exactly.
WEIGHTS = [3, 7, 2, 5, 4, 9, 6, 1, 8, 3, 11, 5]
P = {s: Fraction(w, 64) for s, w in zip(STATES, WEIGHTS)}
NMAX = 4


def mass(pmf, keep):
    """Marginal of a measure over states onto the coordinate indices keep."""
    out = {}
    for s, m in pmf.items():
        key = tuple(s[i] for i in keep)
        out[key] = out.get(key, 0) + m
    return out


def tv(mu, nu):
    return sum(abs(mu.get(k, 0) - nu.get(k, 0)) for k in set(mu) | set(nu)) / 2


P_Z, P_XZ, P_XY = mass(P, (2,)), mass(P, (0, 2)), mass(P, (0, 1))


def x_given_z(x, z):
    return P_XZ[x, z] / P_Z[(z,)]


def y_given_xz(y, x, z):
    return P[x, y, z] / P_XZ[x, z]


def z_given_xy(z, x, y):
    return P[x, y, z] / P_XY[x, y]


# the three single-coordinate updates, as maps from a state to the law of
# the next one
def update_x(s):  # X | Z, the X half of the (X, Y) | Z refresh
    return {(x, s[1], s[2]): x_given_z(x, s[2]) for x in range(NX)}


def update_y(s):  # Y | (X, Z)
    return {(s[0], y, s[2]): y_given_xz(y, s[0], s[2]) for y in range(NY)}


def update_z(s):  # Z | (X, Y)
    return {(s[0], s[1], z): z_given_xy(z, s[0], s[1]) for z in range(NZ)}


def compose(*updates):
    """The sweep applying ``updates`` in order, as a dense map of laws."""
    kernel = {s: {s: Fraction(1)} for s in STATES}
    for update in updates:
        step = {t: update(t) for t in STATES}
        kernel = {s: apply(row, step) for s, row in kernel.items()}
    return kernel


def apply(mu, kernel):
    out = {}
    for s, m in mu.items():
        for t, k in kernel[s].items():
            out[t] = out.get(t, 0) + m * k
    return out


BLOCK = compose(update_x, update_y, update_z)  # (X, Y) | Z, then Z | (X, Y)
ROTATED = compose(update_z, update_x, update_y)
OOO = compose(update_y, update_z, update_x)
P_STAR = {(x, y, z): x_given_z(x, z) * mass(P, (1, 2))[y, z] for x, y, z in STATES}

POINTS = [{s: Fraction(1)} for s in STATES]
NU_Z = [{(x, 0, z): x_given_z(x, z) for x in range(NX)} for z in range(NZ)]
# nu_xz lifted to a dummy z = 0, in check_prop1's row order x * nz + z
NU_XZ = [
    {(x, y, 0): y_given_xz(y, x, z) for y in range(NY)}
    for x, z in itertools.product(range(NX), range(NZ))
]


def laws(kernel, starts, steps):
    """laws[n][i]: start i after n steps, n = 0..steps."""
    out = [list(starts)]
    for _ in range(steps):
        out.append([apply(mu, kernel) for mu in out[-1]])
    return out


def test_full_space_tv_equals_read_coordinate_tv_exactly():
    cases = (
        (BLOCK, P, POINTS, (0, 1)),
        (ROTATED, P, POINTS + NU_XZ, (2,)),
        (OOO, P_STAR, POINTS + NU_Z, (1, 2)),
    )
    for kernel, target, starts, read in cases:
        assert apply(target, kernel) == target
        for row in laws(kernel, starts, NMAX)[1:]:
            for mu in row:
                assert tv(mu, target) == tv(mass(mu, read), mass(target, read))


def test_check_prop1_matches_the_exact_chains():
    block = laws(BLOCK, POINTS, NMAX)
    ooo = laws(OOO, POINTS, NMAX)
    nu_z = laws(OOO, NU_Z, NMAX)
    nu_xz = laws(ROTATED, NU_XZ, NMAX)
    chain1, chain2 = [], []
    for n in range(1, NMAX + 1):
        z_term = max(tv(mass(mu, (2,)), P_Z) for mu in block[n - 1])
        nu_term = max(tv(mu, P_STAR) for mu in nu_z[n - 2]) if n >= 2 else None
        chain1.append([max(tv(mu, P) for mu in block[n]), z_term, nu_term])
        chain2.append([
            max(tv(mu, P_STAR) for mu in ooo[n]),
            max(tv(mass(mu, (0, 1)), P_XY) for mu in nu_xz[n - 1]),
            max(tv(mu, P) for mu in nu_xz[n - 1]),
        ])
    # the worst cases chain in exact arithmetic as well
    for n, (a, b, c) in enumerate(chain1, start=1):
        assert n < 3 or a <= b <= c
    assert all(a <= b <= c for a, b, c in chain2)

    pmf = JointPmf3(Dims(NX, NY, NZ), np.array(WEIGHTS, dtype=float).reshape(NX, NY, NZ) / 64)
    report = check_prop1(pmf, NMAX)
    assert report.verdict
    # float64 against exact: four steps of sums of at most 12 terms in [0, 1]
    # stay within a few ulps of 1
    want = np.array([[np.nan if v is None else float(v) for v in row] for row in chain1])
    np.testing.assert_allclose(report.chain1, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(report.chain2, np.array(chain2, dtype=float), rtol=0, atol=1e-15)
