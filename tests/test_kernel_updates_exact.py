"""Exact-arithmetic witness of ``Kernel.step``, which runs a sweep's
conditional updates one at a time, and of the spectral and marginal facts
the exact path reports.

The sweeps, pmf and pi_star are the ``fractions.Fraction`` ones of
``test_read_coordinates_exact`` (and its marginal chains those of
``test_lag_identity_exact``), which share nothing with the package. The
characteristic polynomials are taken by the Faddeev-LeVerrier recursion,
exact in rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from blockgibbs import (
    Dims,
    JointPmf3,
    anti_example_pmf,
    block_kernel,
    check_marginal_agreement,
    check_pistar_invariance,
    ooo_kernel,
    rotated_block_kernel,
)
from blockgibbs.analysis import nonzero_eigs
from test_lag_identity_exact import K_XY, K_Z
from test_read_coordinates_exact import (
    BLOCK,
    NX,
    NY,
    NZ,
    OOO,
    P,
    P_STAR,
    ROTATED,
    STATES,
    WEIGHTS,
    apply,
    mass,
    tv,
)

PMF = JointPmf3(Dims(NX, NY, NZ), np.array(WEIGHTS, dtype=float).reshape(NX, NY, NZ) / 64)
#: The 2x2x1 counterexample [[0.4, 0.1], [0.1, 0.4]], exactly.
ANTI = {(0, 0, 0): Fraction(2, 5), (0, 1, 0): Fraction(1, 10),
        (1, 0, 0): Fraction(1, 10), (1, 1, 0): Fraction(2, 5)}


def on_codec(law, codec) -> np.ndarray:
    """A law over (x, y, z) states as a float vector in the codec's order."""
    out = np.zeros(codec.size)
    for state, m in law.items():
        coords = dict(zip("XYZ", state))
        out[codec.encode([coords[lab] for lab in codec.labels])] = float(m)
    return out


def exact_pi_star(p):
    """q(x, y, z) = P(X=x | Z=z) P(Y=y, Z=z)."""
    p_z, p_xz, p_yz = mass(p, (2,)), mass(p, (0, 2)), mass(p, (1, 2))
    return {(x, y, z): p_xz[x, z] / p_z[(z,)] * p_yz[y, z] for x, y, z in p}


def charpoly(kernel):
    """Coefficients of det(lambda I - K), highest power first."""
    states = list(kernel)
    a = [[kernel[s].get(t, 0) for t in states] for s in states]
    n = len(states)
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        # M_k = A M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(A M_k) / k
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)
    return coeffs


def without_zero_roots(coeffs):
    """The polynomial divided by its largest power of lambda."""
    while coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


@pytest.mark.parametrize("factory, exact", [(block_kernel, BLOCK), (rotated_block_kernel, ROTATED),
                                            (ooo_kernel, OOO)])
def test_step_from_every_state_is_the_exact_law(factory, exact):
    # one state at a time and all twelve as one bank: float64 against exact,
    # products of three conditionals summed over at most 12 terms
    kernel = factory(PMF)
    starts = np.array([on_codec({s: 1}, kernel.codec) for s in STATES])
    laws = np.array([on_codec(exact[s], kernel.codec) for s in STATES])
    for start, law in zip(starts, laws):
        np.testing.assert_allclose(kernel.step(start), law, rtol=0, atol=1e-15)
    np.testing.assert_allclose(kernel.step(starts), laws, rtol=0, atol=1e-15)


def test_invariance_residuals_are_their_exact_values():
    # pi_star is invariant exactly, and pi moves by an exact L1 residual
    def residual(mu):
        after = apply(mu, OOO)
        return sum(abs(after.get(s, 0) - mu.get(s, 0)) for s in STATES)

    assert residual(P_STAR) == 0
    r_star, r_pi = check_pistar_invariance(PMF)
    assert r_star <= 1e-15
    assert r_pi == pytest.approx(float(residual(P)), rel=0, abs=1e-15)
    assert residual(P) > 0


def test_sweeps_and_marginal_chains_share_a_characteristic_polynomial():
    # block, rotated and out-of-order (12 states), K_xy (6) and K_z (2)
    # agree up to powers of lambda: the same nonzero spectrum, with
    # multiplicity, in exact arithmetic
    polys = [without_zero_roots(charpoly(k)) for k in (BLOCK, ROTATED, OOO, K_XY, K_Z)]
    assert all(poly == polys[0] for poly in polys)
    assert len(polys[0]) == NZ + 1  # K_z's nz eigenvalues, none of them zero
    # the package's nonzero eigenvalues are its roots
    for factory in (block_kernel, ooo_kernel):
        got = np.poly(nonzero_eigs(factory(PMF)))
        np.testing.assert_allclose(got, [float(c) for c in polys[0]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("p", [P, ANTI], ids=["2x3x2", "anti-example"])
def test_pi_star_keeps_every_marginal_but_xy_exactly(p):
    star = exact_pi_star(p)
    assert sum(star.values()) == 1
    for keep in ((0,), (1,), (2,), (0, 2), (1, 2)):
        assert mass(star, keep) == mass(p, keep), keep
    assert mass(star, (0, 1)) != mass(p, (0, 1))
    if p is P:
        assert star == P_STAR


def test_anti_example_xy_tv_is_three_tenths_exactly():
    star = exact_pi_star(ANTI)
    assert tv(mass(ANTI, (0, 1)), mass(star, (0, 1))) == Fraction(3, 10)
    pmf = anti_example_pmf()
    np.testing.assert_array_equal(pmf.p.ravel(), [float(ANTI[s]) for s in sorted(ANTI)])
    assert check_marginal_agreement(pmf)["XY"] == pytest.approx(0.3, rel=0, abs=1e-15)
