"""Factored kernels against a dense reference built straight from the
formulas in the ``kernels`` module docstring.

The reference computes every conditional from the pmf tensor with numpy,
assembles each kernel as a dense s x s einsum, and runs the pre-factoring
algorithms on it: numpy eigenvalues of the full matrix, a left
unit-eigenvector, and power curves from every start state. The factored
results must agree within the tolerances the verdicts themselves use.
"""

import itertools

import numpy as np
import pytest

from blockgibbs import (
    block_kernel,
    check_prop1,
    gibbs_kernel,
    marginal_xy_kernel,
    marginal_z_kernel,
    ooo_kernel,
    rotated_block_kernel,
    spectrum,
    stationary,
)
from blockgibbs.analysis import INEQ_SLACK, RATE_TOL, STATIONARY_RESIDUAL_TOL, nonzero_eigs
from conftest import stationary_by_eig

FACTORIES = {
    "block": block_kernel,
    "rotated": rotated_block_kernel,
    "ooo": ooo_kernel,
    "marginal_xy": marginal_xy_kernel,
    "marginal_z": marginal_z_kernel,
}


def conditionals(p):
    """P(x,y|z), P(z|x,y), P(y|x,z) as [x, y, z] tensors; P(x|z) as [x, z]."""
    p_xz = p.sum(axis=1)
    return (
        p / p.sum(axis=(0, 1)),
        p / p.sum(axis=2, keepdims=True),
        p / p.sum(axis=1, keepdims=True),
        p_xz / p_xz.sum(axis=0),
    )


def dense_reference(pmf) -> dict:
    """The five kernels as dense matrices, in their codecs' state orders."""
    p = pmf.p
    nx, ny, nz = p.shape
    s = p.size
    p_xy_z, p_z_xy, p_y_xz, p_x_z = conditionals(p)
    return {
        # codec (X, Y, Z): P(x',y' | z) P(z' | x',y')
        "block": np.einsum("xyz,abz,abc->xyzabc", np.ones((nx, ny, nz)), p_xy_z, p_z_xy)
        .reshape(s, s),
        # codec (Z, X, Y): P(z' | x,y) P(x',y' | z')
        "rotated": np.einsum("zxy,xyc,abc->zxycab", np.ones((nz, nx, ny)), p_z_xy, p_xy_z)
        .reshape(s, s),
        # codec (Y, Z, X): P(y' | x,z) P(z' | x,y') P(x' | z')
        "ooo": np.einsum(
            "yzx,xbz,xbc,ac->yzxbca", np.ones((ny, nz, nx)), p_y_xz, p_z_xy, p_x_z
        ).reshape(s, s),
        # codec (X, Y): sum_z P(z | x,y) P(x',y' | z)
        "marginal_xy": np.einsum("xyz,abz->xyab", p_z_xy, p_xy_z).reshape(nx * ny, nx * ny),
        # codec (Z,): sum_{x',y'} P(x',y' | z) P(z' | x',y')
        "marginal_z": np.einsum("abz,abc->zc", p_xy_z, p_z_xy),
    }


def distinct_rows(pmf) -> dict:
    nx, ny, nz = pmf.dims.shape
    return {"block": nz, "rotated": nx * ny, "ooo": nx * nz,
            "marginal_xy": nx * ny, "marginal_z": nz}


def gibbs_reference(pmf, order: str) -> np.ndarray:
    """The single-site sweep in update order ``order`` as a dense matrix on
    the codec ``order``: each entry is the product of the three full
    conditionals, each read at the freshest values."""
    p = pmf.p
    full = {lab: p / p.sum(axis=i, keepdims=True) for i, lab in enumerate("XYZ")}
    sizes = dict(zip("XYZ", p.shape))
    states = list(itertools.product(*(range(sizes[lab]) for lab in order)))
    out = np.empty((len(states), len(states)))
    for i, cur in enumerate(states):
        for j, nxt in enumerate(states):
            state = dict(zip(order, cur))
            entry = 1.0
            for lab, value in zip(order, nxt):
                state[lab] = value
                entry *= full[lab][state["X"], state["Y"], state["Z"]]
            out[i, j] = entry
    return out


def multiset_gap(a: np.ndarray, b: np.ndarray) -> float:
    n = max(a.size, b.size)
    a = np.sort_complex(np.concatenate([a, np.zeros(n - a.size)]))
    b = np.sort_complex(np.concatenate([b, np.zeros(n - b.size)]))
    return float(np.abs(a - b).max()) if n else 0.0


def test_matrix_and_steps_match_reference(corpus):
    rng = np.random.default_rng(0)
    for pmf in corpus:
        ref = dense_reference(pmf)
        rows = distinct_rows(pmf)
        for name, factory in FACTORIES.items():
            k = factory(pmf)
            assert k.rows.shape == (rows[name], k.codec.size), name
            np.testing.assert_allclose(k.matrix, ref[name], rtol=0, atol=1e-15)
            bank = rng.random((3, k.codec.size))
            np.testing.assert_allclose(k.step(bank), bank @ ref[name], rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", ["".join(o) for o in itertools.permutations("XYZ")])
def test_gibbs_matrix_and_steps_match_reference(corpus, order):
    # one pmf of each corpus shape, plus a second 2x2x2 one
    rng = np.random.default_rng(0)
    for pmf in corpus[:5]:
        k = gibbs_kernel(pmf, order)
        ref = gibbs_reference(pmf, order)
        s = k.codec.size
        assert k.codec.labels == tuple(order)
        # rows never read the first-updated coordinate
        n_first = pmf.dims.shape["XYZ".index(order[0])]
        assert k.rows.shape == (s // n_first, s)
        np.testing.assert_array_equal(k.matrix, k.rows[np.arange(s) % (s // n_first)])
        np.testing.assert_allclose(k.matrix, ref, rtol=0, atol=1e-15)
        bank = rng.random((3, s))
        np.testing.assert_allclose(k.step(bank), bank @ ref, rtol=0, atol=1e-15)


def test_stationary_and_spectrum_match_reference(corpus):
    for pmf in corpus:
        ref = dense_reference(pmf)
        for name, factory in FACTORIES.items():
            k = factory(pmf)
            v = stationary(k)
            assert np.abs(v @ ref[name] - v).sum() <= STATIONARY_RESIDUAL_TOL, name
            assert np.abs(v - stationary_by_eig(ref[name])).sum() <= STATIONARY_RESIDUAL_TOL

            eigs = np.linalg.eigvals(ref[name])
            summary = spectrum(k)
            assert summary.moduli.size == k.codec.size
            non_unit = eigs[np.abs(eigs - 1.0) > 1e-9]
            ref_slem = np.abs(non_unit).max() if non_unit.size else 0.0
            assert abs(summary.slem - ref_slem) <= RATE_TOL, name
            ref_nonzero = eigs[np.abs(eigs) > RATE_TOL]
            assert multiset_gap(nonzero_eigs(k), ref_nonzero) <= RATE_TOL, name


def test_ooo_structural_zeros_are_exact(corpus):
    # K_ooo has rank(K) > rank(K^2), so its zero eigenvalue is defective and
    # a dense eigensolver returns it as noise of order sqrt(machine epsilon);
    # the factored spectrum pads exact zeros past the core's r eigenvalues.
    for pmf in corpus[:8]:
        k = ooo_kernel(pmf)
        summary = spectrum(k)
        assert (summary.moduli[k.rows.shape[0]:] == 0.0).all()
        assert summary.moduli[pmf.dims.nz:].max() < 1e-12  # rank of the core <= nz


def tv_rows(bank: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(bank - target).sum(axis=1)


def dense_curves(matrix, bank, target, top):
    """Worst-case distance over the bank's rows after n = 0..top steps."""
    out = [tv_rows(bank, target).max()]
    for _ in range(top):
        bank = bank @ matrix
        out.append(tv_rows(bank, target).max())
    return np.array(out)


def dense_prop1(pmf, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case chain rows from the reference matrices, as check_prop1
    reports them: chain1 (n, 3) with NaN at undefined terms, chain2 (n, 3)."""
    p = pmf.p
    nx, ny, nz = p.shape
    s = p.size
    ref = dense_reference(pmf)
    _, _, p_y_xz, p_x_z = conditionals(p)
    q = np.einsum("xz,yz->xyz", p_x_z, p.sum(axis=0))  # pi_star

    pi_xyz = p.ravel()
    pi_zxy = p.transpose(2, 0, 1).ravel()
    pi_xy = p.sum(axis=2).ravel()
    pi_z = p.sum(axis=(0, 1))
    star_yzx = q.transpose(1, 2, 0).ravel()

    nu_z = np.zeros((nz, ny, nz, nx))  # start z, then codec (Y, Z, X)
    nu_flat = np.zeros((nx, nz, nx, ny))  # start (x, z), then codec (X, Y)
    nu_lift = np.zeros((nx, nz, nz, nx, ny))  # start (x, z), then codec (Z, X, Y)
    for z in range(nz):
        nu_z[z, 0, z] = p_x_z[:, z]
        for x in range(nx):
            nu_flat[x, z, x] = p_y_xz[x, :, z]
            nu_lift[x, z, 0, x] = p_y_xz[x, :, z]

    block = dense_curves(ref["block"], np.eye(s), pi_xyz, nmax)
    kz = dense_curves(ref["marginal_z"], np.eye(nz), pi_z, nmax)
    ooo_nu = dense_curves(ref["ooo"], nu_z.reshape(nz, s), star_yzx, nmax)
    ooo = dense_curves(ref["ooo"], np.eye(s), star_yzx, nmax)
    xy_nu = dense_curves(ref["marginal_xy"], nu_flat.reshape(nx * nz, nx * ny), pi_xy, nmax)
    rot_nu = dense_curves(ref["rotated"], nu_lift.reshape(nx * nz, s), pi_zxy, nmax)

    n = np.arange(1, nmax + 1)
    right1 = np.where(n >= 2, ooo_nu[np.maximum(n - 2, 0)], np.nan)
    chain1 = np.column_stack([block[n], kz[n - 1], right1])
    chain2 = np.column_stack([ooo[n], xy_nu[n - 1], rot_nu[n - 1]])
    return chain1, chain2


def test_prop1_curves_match_reference(corpus):
    nmax = 50
    for pmf in corpus:
        report = check_prop1(pmf, nmax)
        chain1, chain2 = dense_prop1(pmf, nmax)
        np.testing.assert_array_equal(np.isnan(report.chain1), np.isnan(chain1))
        np.testing.assert_allclose(report.chain1, chain1, rtol=0, atol=INEQ_SLACK)
        np.testing.assert_allclose(report.chain2, chain2, rtol=0, atol=INEQ_SLACK)
        assert report.verdict
