"""Exact-arithmetic witness of the lag identity that lets ``check_prop1``
read the out-of-order curves off the K_z and K_xy chains.

In an out-of-order sweep from (y, z, x), the pair (x_(n-1), y_n) runs the
K_xy = BA chain from nu_xz row (x, z), with A = P(X,Y | Z) and
B = P(Z | X,Y). The state after n sweeps is that pair pushed through
z_n ~ P(Z | x_(n-1), y_n), which Q[(x, y), (y', z')] = 1{y' = y} P(z' | x, y)
carries, and then x_n ~ P(X | z_n). So the (y, z) law after n sweeps is
nu_xz[x * nz + z] K_xy^(n-1) Q, and from nu_z row z, whose first draw makes
(x, y_1) ~ e_z A, it is e_z K_z^(n-1) A Q. Both hold here at every
n <= NMAX in ``fractions.Fraction``, on the sweeps and start measures of
``test_read_coordinates_exact``, which share nothing with the package.
"""

import itertools

from test_read_coordinates_exact import (
    NMAX,
    NU_XZ,
    NU_Z,
    NX,
    NY,
    NZ,
    OOO,
    P,
    P_Z,
    STATES,
    apply,
    laws,
    mass,
    z_given_xy,
)

PAIRS = list(itertools.product(range(NX), range(NY)))  # (x, y)
#: A, B and Q as maps from a state to the law of the next one
A = {(z,): {(x, y): P[x, y, z] / P_Z[(z,)] for x, y in PAIRS} for z in range(NZ)}
B = {(x, y): {(z,): z_given_xy(z, x, y) for z in range(NZ)} for x, y in PAIRS}
Q = {(x, y): {(y, z): z_given_xy(z, x, y) for z in range(NZ)} for x, y in PAIRS}
K_XY = {s: apply(B[s], A) for s in PAIRS}
K_Z = {s: apply(A[s], B) for s in A}


def same_law(mu, nu):
    return all(mu.get(k, 0) == nu.get(k, 0) for k in set(mu) | set(nu))


def test_kernels_are_stochastic_and_the_cores_keep_their_targets():
    for kernel in (A, B, Q, K_XY, K_Z):
        assert all(sum(row.values()) == 1 for row in kernel.values())
    assert same_law(apply(mass(P, (0, 1)), K_XY), mass(P, (0, 1)))
    assert same_law(apply(P_Z, K_Z), P_Z)


def test_ooo_from_every_state_is_the_xy_chain_half_a_sweep_late():
    ooo = laws(OOO, [{s: 1} for s in STATES], NMAX)
    for i, (x, y, z) in enumerate(STATES):
        w = mass(NU_XZ[x * NZ + z], (0, 1))  # the lifted row's (x, y) law
        for n in range(1, NMAX + 1):
            assert same_law(mass(ooo[n][i], (1, 2)), apply(w, Q)), ((x, y, z), n)
            w = apply(w, K_XY)


def test_ooo_from_nu_z_is_the_z_chain_read_through_a_q():
    ooo = laws(OOO, NU_Z, NMAX)
    for z in range(NZ):
        w = {(z,): 1}
        for m in range(1, NMAX + 1):
            assert same_law(mass(ooo[m][z], (1, 2)), apply(apply(w, A), Q)), (z, m)
            w = apply(w, K_Z)
