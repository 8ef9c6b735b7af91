"""``check_prop1`` against the dense reference of ``test_factored_kernels``
beyond the corpus's worst-case maxima: from every start, and on
near-degenerate pmfs drawn by Hypothesis.

A worst case over starts cannot see two starts trade places, so the
per-start witness compares each row of ``check_prop1``'s two iterations
(K_z from e_z, K_xy from nu_xz row x * nz + z) with dense curves from the
start that row stands for.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgibbs import Dims, JointPmf3, analysis, check_prop1, random_pmf
from blockgibbs.analysis import INEQ_SLACK
from test_analysis import prop1_curve_calls
from test_factored_kernels import conditionals, dense_prop1, dense_reference, tv_rows


def dense_curves_per_start(matrix, bank, target, top):
    """[n, start]: the distance of each bank row after n = 0..top steps."""
    out = [tv_rows(bank, target)]
    for _ in range(top):
        bank = bank @ matrix
        out.append(tv_rows(bank, target))
    return np.array(out)


def dense_prop1_per_start(pmf, nmax):
    """The six curves check_prop1 reads, per start, from the dense kernels:
    for start z the z-marginal at n - 1, the block sweep from (0, 0, z) and
    the ooo sweep from nu_z row z at n; for start x * nz + z the xy-marginal
    from nu_xz at n - 1, the rotated sweep from lifted nu_xz at n and the
    ooo sweep from (y, z, x) = (0, z, x) at n."""
    p = pmf.p
    nx, ny, nz = p.shape
    s = p.size
    ref = dense_reference(pmf)
    _, _, p_y_xz, p_x_z = conditionals(p)
    star_yzx = np.einsum("xz,yz->yzx", p_x_z, p.sum(axis=0)).ravel()
    nu_z = np.zeros((nz, ny, nz, nx))  # codec (Y, Z, X)
    nu_flat = np.zeros((nx, nz, nx, ny))  # codec (X, Y)
    nu_lift = np.zeros((nx, nz, nz, nx, ny))  # codec (Z, X, Y)
    for z in range(nz):
        nu_z[z, 0, z] = p_x_z[:, z]
        for x in range(nx):
            nu_flat[x, z, x] = nu_lift[x, z, 0, x] = p_y_xz[x, :, z]
    ooo_states = [z * nx + x for x in range(nx) for z in range(nz)]  # (0, z, x)
    pi_z, pi_xy = p.sum(axis=(0, 1)), p.sum(axis=2).ravel()
    curves = dense_curves_per_start
    k_z = (
        curves(ref["marginal_z"], np.eye(nz), pi_z, nmax)[:-1],
        curves(ref["block"], np.eye(s)[:nz], p.ravel(), nmax)[1:],
        curves(ref["ooo"], nu_z.reshape(nz, s), star_yzx, nmax)[1:],
    )
    k_xy = (
        curves(ref["marginal_xy"], nu_flat.reshape(nx * nz, -1), pi_xy, nmax)[:-1],
        curves(ref["rotated"], nu_lift.reshape(nx * nz, s), p.transpose(2, 0, 1).ravel(), nmax)[1:],
        curves(ref["ooo"], np.eye(s)[ooo_states], star_yzx, nmax)[1:],
    )
    return k_z, k_xy


def assert_curves_match_per_start(monkeypatch, pmf, nmax):
    calls = prop1_curve_calls(monkeypatch, pmf, nmax)
    assert len(calls) == 2
    for args, want in zip(calls, dense_prop1_per_start(pmf, nmax)):
        got = analysis.tv_curve(*args)[:, 1:]
        for law, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_allclose(g, w, rtol=0, atol=INEQ_SLACK, err_msg=f"law {law}")


@pytest.mark.parametrize("index", [0, 1, 2, 3, 6, 7])
def test_prop1_curves_match_reference_from_every_start(monkeypatch, corpus, index):
    assert_curves_match_per_start(monkeypatch, corpus[index], 30)


def test_per_start_witness_sees_two_starts_trade_places(monkeypatch):
    # swapping nu_xz rows (x, z) = (2, 0) and (2, 1) of the 3x2x2 pmf moves
    # neither worst case nor violation label, but it moves both rows' curves
    pmf = random_pmf(Dims(3, 2, 2), seed=7, floor=0.005)
    real = analysis.nu_xz
    monkeypatch.setattr(analysis, "nu_xz", lambda pmf: real(pmf)[[0, 1, 2, 3, 5, 4]])
    with pytest.raises(AssertionError):
        assert_curves_match_per_start(monkeypatch, pmf, 10)


@st.composite
def near_degenerate_pmfs(draw):
    """Pmfs with at most 3 values per axis, either with cells near 0 (a
    floor from 1e-15 up) or close to a product (slem near 0)."""
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    cells = st.lists(st.floats(0.0, 1.0), min_size=math.prod(dims), max_size=math.prod(dims))
    if draw(st.booleans()):
        weights = np.array(draw(cells))
        floor = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3]))
        p = weights.reshape(dims) + floor * (1 + weights.sum())
    else:
        px, py, pz = (
            np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))) for n in dims
        )
        noise = np.array(draw(cells))
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2]))
        p = np.einsum("x,y,z->xyz", px, py, pz) * (1 + eps * noise.reshape(dims))
    return JointPmf3(Dims(*dims), p / p.sum())


@settings(max_examples=60, deadline=None)
@given(near_degenerate_pmfs())
def test_prop1_matches_the_dense_reference_on_near_degenerate_pmfs(pmf):
    nmax = 12
    report = check_prop1(pmf, nmax)
    chain1, chain2 = dense_prop1(pmf, nmax)
    np.testing.assert_array_equal(np.isnan(report.chain1), np.isnan(chain1))
    np.testing.assert_allclose(report.chain1, chain1, rtol=0, atol=INEQ_SLACK)
    np.testing.assert_allclose(report.chain2, chain2, rtol=0, atol=INEQ_SLACK)
    assert report.verdict, report.violations
