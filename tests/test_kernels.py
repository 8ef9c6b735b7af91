"""Tests for the kernel factories, state codecs, and start measures.

Stationary claims are verified against a left-eigenvector oracle (dense eig
of the transpose), which shares no code with the package's least-squares
stationary solver.
"""

import csv
import itertools

import numpy as np
import pytest

from blockgibbs import (
    Dims,
    JointPmf3,
    Kernel,
    StateCodec,
    block_kernel,
    conditional,
    flatten_to_codec,
    gibbs_kernel,
    marginal,
    marginal_xy_kernel,
    marginal_z_kernel,
    nu_xz,
    nu_z,
    ooo_kernel,
    pi_star,
    random_pmf,
    rotated_block_kernel,
    tv,
)
from conftest import stationary_by_eig


def nonzero_eig_multiset(matrix: np.ndarray, zero_tol: float = 1e-8) -> np.ndarray:
    eigs = np.linalg.eigvals(matrix)
    return np.sort_complex(eigs[np.abs(eigs) > zero_tol])


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "labels", [("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y"), ("X", "Y"), ("Z",)]
)
def test_codec_round_trip(pmf_322, labels):
    codec = StateCodec.for_labels(pmf_322, labels)
    for flat in range(codec.size):
        assert codec.encode(codec.decode(flat)) == flat


def test_codec_labels_and_bounds(pmf_322):
    codec = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    assert codec.state_label(codec.encode((1, 0, 2))) == "y1_z0_x2"
    with pytest.raises(ValueError):
        codec.encode((2, 0, 0))  # ny = 2
    with pytest.raises(ValueError):
        codec.decode(codec.size)


def test_codec_flatten_matches_encode(pmf_322):
    codec = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    flat = flatten_to_codec(pmf_322, codec)
    nx, ny, nz = pmf_322.dims.shape
    for x, y, z in itertools.product(range(nx), range(ny), range(nz)):
        assert flat[codec.encode((y, z, x))] == pmf_322.p[x, y, z]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def test_kernel_rejects_bad_matrices(pmf_322):
    codec = StateCodec.for_labels(pmf_322, ("Z",))
    with pytest.raises(ValueError):
        Kernel(codec, np.array([[0.5, 0.4], [0.5, 0.5]]))  # row sums 0.9
    with pytest.raises(ValueError):
        Kernel(codec, np.array([[1.5, -0.5], [0.0, 1.0]]))  # negative entry
    # state i reads row i % r, so the row count must divide the state count
    yzx = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))  # 12 states
    for r in (5, 7, 13):
        with pytest.raises(ValueError, match="does not match codec size"):
            Kernel(yzx, np.full((r, yzx.size), 1.0 / yzx.size))
    shared = Kernel(codec, np.array([[0.5, 0.5]]))
    np.testing.assert_array_equal(shared.matrix, [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_array_equal(shared.core, [[1.0]])


def test_step_sums_over_readers_unless_the_index_is_the_identity(pmf_322):
    # with r = s every state reads its own row and a step is one product
    codec = StateCodec.for_labels(pmf_322, ("Z",))
    rows = np.array([[0.5, 0.5], [0.1, 0.9]])
    v = np.array([[0.3, 0.7], [1.0, 0.0]])
    np.testing.assert_array_equal(Kernel(codec, rows).step(v), v @ rows)
    np.testing.assert_array_equal(Kernel(codec, rows).step(v[0]), v[0] @ rows)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_a_tiled_kernel_sums_each_rows_readers_left_to_right(pmf_322, r):
    # state i reads row i % r: 6, 4 or 3 readers per row of 12 states
    yzx = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    s = yzx.size
    rng = np.random.default_rng(r)
    rows = rng.random((r, s))
    k = Kernel(yzx, rows / rows.sum(axis=1, keepdims=True))
    for i in range(s):
        np.testing.assert_array_equal(k.matrix[i], k.rows[i % r])
    bank = rng.random((5, s))
    bank /= bank.sum(axis=1, keepdims=True)
    readers = bank[:, :r].copy()
    for start in range(r, s, r):
        readers = readers + bank[:, start:start + r]
    np.testing.assert_array_equal(k.step(bank), readers @ k.rows)
    np.testing.assert_array_equal(k.step(bank[0]), readers[0] @ k.rows)
    np.testing.assert_allclose(k.step(bank), bank @ k.matrix, rtol=0, atol=1e-15)
    core = k.rows[:, :r].copy()
    for start in range(r, s, r):
        core = core + k.rows[:, start:start + r]
    np.testing.assert_array_equal(k.core, core)


# ---------------------------------------------------------------------------
# gibbs_kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ordering", list(itertools.permutations("XYZ")))
def test_gibbs_product_pmf_is_rank_one(product_222, ordering):
    k = gibbs_kernel(product_222, ordering)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(k.matrix, np.tile(flat, (flat.size, 1)), atol=1e-15)


@pytest.mark.parametrize("ordering", list(itertools.permutations("XYZ")))
def test_gibbs_stationary_is_target_for_all_orderings(pmf_322, ordering):
    k = gibbs_kernel(pmf_322, ordering)
    v = stationary_by_eig(k.matrix)
    assert np.abs(v - flatten_to_codec(pmf_322, k.codec)).sum() < 1e-12


def test_gibbs_trivial_space():
    pmf = JointPmf3(Dims(1, 1, 1), np.ones((1, 1, 1)))
    np.testing.assert_array_equal(gibbs_kernel(pmf, "XYZ").matrix, [[1.0]])


def test_gibbs_rejects_bad_ordering(pmf_322):
    with pytest.raises(ValueError):
        gibbs_kernel(pmf_322, ("X", "Y"))
    with pytest.raises(ValueError):
        gibbs_kernel(pmf_322, ("X", "X", "Z"))


# ---------------------------------------------------------------------------
# block_kernel
# ---------------------------------------------------------------------------
def test_block_rows_depend_only_on_z(pmf_322):
    k = block_kernel(pmf_322)
    nx, ny, nz = pmf_322.dims.shape
    for z in range(nz):
        rows = [
            k.matrix[k.codec.encode((x, y, z))]
            for x in range(nx)
            for y in range(ny)
        ]
        for row in rows[1:]:
            np.testing.assert_array_equal(row, rows[0])


def test_block_product_is_rank_one(product_222):
    k = block_kernel(product_222)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(k.matrix, np.tile(flat, (flat.size, 1)), atol=1e-15)


def test_block_stationary_is_target(pmf_322):
    k = block_kernel(pmf_322)
    v = stationary_by_eig(k.matrix)
    assert np.abs(v - flatten_to_codec(pmf_322, k.codec)).sum() < 1e-12


# ---------------------------------------------------------------------------
# rotated_block_kernel
# ---------------------------------------------------------------------------
def test_rotated_stationary_is_target_reindexed(pmf_322):
    k = rotated_block_kernel(pmf_322)
    assert k.codec.labels == ("Z", "X", "Y")
    v = stationary_by_eig(k.matrix)
    assert np.abs(v - flatten_to_codec(pmf_322, k.codec)).sum() < 1e-12


def test_rotated_spectrum_matches_block(pmf_322):
    # both compose the same two conditional refreshes in opposite order
    a = np.sort_complex(np.linalg.eigvals(block_kernel(pmf_322).matrix))
    b = np.sort_complex(np.linalg.eigvals(rotated_block_kernel(pmf_322).matrix))
    assert np.abs(a - b).max() < 1e-8


def test_rotated_product_is_rank_one(product_222):
    k = rotated_block_kernel(product_222)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(k.matrix, np.tile(flat, (flat.size, 1)), atol=1e-15)


# ---------------------------------------------------------------------------
# ooo_kernel
# ---------------------------------------------------------------------------
def test_ooo_rows_ignore_y(pmf_322):
    k = ooo_kernel(pmf_322)
    nx, ny, nz = pmf_322.dims.shape
    for z, x in itertools.product(range(nz), range(nx)):
        base = k.matrix[k.codec.encode((0, z, x))]
        for y in range(1, ny):
            np.testing.assert_array_equal(k.matrix[k.codec.encode((y, z, x))], base)


def test_ooo_stationary_is_pi_star(pmf_322):
    k = ooo_kernel(pmf_322)
    assert k.codec.labels == ("Y", "Z", "X")
    v = stationary_by_eig(k.matrix)
    assert np.abs(v - flatten_to_codec(pi_star(pmf_322), k.codec)).sum() < 1e-12


def test_ooo_anti_example_erases_xy_dependence(anti_pmf):
    k = ooo_kernel(anti_pmf)
    v = stationary_by_eig(k.matrix)  # over (y, z, x)
    xy = np.zeros((2, 2))
    for flat, mass in enumerate(v):
        y, _, x = k.codec.decode(flat)
        xy[x, y] += mass
    np.testing.assert_allclose(xy, 0.25, atol=1e-14)
    assert abs(tv(xy, marginal(anti_pmf, ("X", "Y"))) - 0.3) < 1e-12


# ---------------------------------------------------------------------------
# marginal kernels
# ---------------------------------------------------------------------------
def test_marginal_xy_reversible(pmf_322):
    k = marginal_xy_kernel(pmf_322)
    pi_xy = flatten_to_codec(pmf_322, k.codec)
    flow = pi_xy[:, None] * k.matrix
    assert np.abs(flow - flow.T).max() < 1e-12


def test_marginal_z_reversible(pmf_322):
    k = marginal_z_kernel(pmf_322)
    pi_z = flatten_to_codec(pmf_322, k.codec)
    flow = pi_z[:, None] * k.matrix
    assert np.abs(flow - flow.T).max() < 1e-12


def test_marginal_kernels_share_nonzero_spectrum(pmf_322):
    a = nonzero_eig_multiset(marginal_xy_kernel(pmf_322).matrix)
    b = nonzero_eig_multiset(marginal_z_kernel(pmf_322).matrix)
    assert a.size == b.size
    assert np.abs(a - b).max() < 1e-8


def test_marginal_xy_product_is_rank_one(product_222):
    k = marginal_xy_kernel(product_222)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(k.matrix, np.tile(flat, (flat.size, 1)), atol=1e-15)


def test_single_z_collapses_marginals(anti_pmf):
    k_xy = marginal_xy_kernel(anti_pmf)
    pi_xy = flatten_to_codec(anti_pmf, k_xy.codec)
    np.testing.assert_allclose(k_xy.matrix, np.tile(pi_xy, (4, 1)), atol=1e-15)
    np.testing.assert_array_equal(marginal_z_kernel(anti_pmf).matrix, [[1.0]])


# ---------------------------------------------------------------------------
# start measures
# ---------------------------------------------------------------------------
def test_nu_z_mass_and_support(pmf_322):
    bank = nu_z(pmf_322)
    codec = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    assert bank.shape == (pmf_322.dims.nz, codec.size)
    cond = conditional(pmf_322, ("X",), ("Z",))
    for z, row in enumerate(bank):
        assert abs(row.sum() - 1.0) < 1e-15
        for flat, mass in enumerate(row):
            y, zz, x = codec.decode(flat)
            if mass > 0:
                assert (y, zz) == (0, z)
            if (y, zz) == (0, z):
                assert mass == cond[z, x]


def test_nu_z_one_step_ignores_dummy_y(pmf_322):
    k = ooo_kernel(pmf_322)
    row = nu_z(pmf_322)[0]
    # same measure but parked at y = 1 instead of the fixed y = 0
    alt = np.zeros_like(row)
    for flat, mass in enumerate(row):
        y, z, x = k.codec.decode(flat)
        if mass > 0:
            alt[k.codec.encode((1, z, x))] = mass
    np.testing.assert_allclose(row @ k.matrix, alt @ k.matrix, atol=1e-15)


def test_nu_z_product_x_component(product_222):
    codec = StateCodec.for_labels(product_222, ("Y", "Z", "X"))
    x_mass = np.zeros(2)
    for flat, mass in enumerate(nu_z(product_222)[0]):
        _, _, x = codec.decode(flat)
        x_mass[x] += mass
    np.testing.assert_allclose(x_mass, [0.3, 0.7], atol=1e-15)


def test_nu_xz_mass_and_lift_identity(pmf_322):
    flat_bank, lifted_bank = nu_xz(pmf_322)
    nx, ny, nz = pmf_322.dims.shape
    assert flat_bank.shape == (nx * nz, nx * ny)
    assert lifted_bank.shape == (nx * nz, nz * nx * ny)
    np.testing.assert_allclose(flat_bank.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lifted_bank.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    # one rotated step from the lift, projected onto (X, Y), equals one
    # xy-marginal step from the flat measure, exactly; row x * nz + z
    # pins (x, z) = (1, 0)
    k_rot = rotated_block_kernel(pmf_322)
    k_xy = marginal_xy_kernel(pmf_322)
    i = 1 * nz + 0
    after_rot = lifted_bank[i] @ k_rot.matrix
    proj = np.zeros(k_xy.codec.size)
    for flat, mass in enumerate(after_rot):
        z, x, y = k_rot.codec.decode(flat)
        proj[k_xy.codec.encode((x, y))] += mass
    after_xy = flat_bank[i] @ k_xy.matrix
    np.testing.assert_allclose(proj, after_xy, atol=1e-15)


def test_start_measures_are_rows_of_the_kept_banks(pmf_322):
    # each bank is built once per pmf, kept on it and read-only; row z of
    # nu_z and row x * nz + z of both nu_xz banks hold the measure pinning
    # those coordinates, built here one row at a time from the conditionals
    nx, ny, nz = pmf_322.dims.shape
    z_bank = nu_z(pmf_322)
    flat, lifted = nu_xz(pmf_322)
    assert z_bank is nu_z(pmf_322) and flat is nu_xz(pmf_322)[0]
    assert not (z_bank.flags.writeable or flat.flags.writeable or lifted.flags.writeable)
    p_x_z = conditional(pmf_322, ("X",), ("Z",))  # (z, x)
    p_y_xz = conditional(pmf_322, ("Y",), ("X", "Z"))  # (x, z, y)
    yzx = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    xy = StateCodec.for_labels(pmf_322, ("X", "Y"))
    zxy = StateCodec.for_labels(pmf_322, ("Z", "X", "Y"))
    for z in range(nz):
        row = np.zeros(yzx.size)
        for x in range(nx):
            row[yzx.encode((0, z, x))] = p_x_z[z, x]
        np.testing.assert_array_equal(z_bank[z], row)
    for x, z in itertools.product(range(nx), range(nz)):
        row_flat, row_lifted = np.zeros(xy.size), np.zeros(zxy.size)
        for y in range(ny):
            row_flat[xy.encode((x, y))] = p_y_xz[x, z, y]
            row_lifted[zxy.encode((0, x, y))] = p_y_xz[x, z, y]
        np.testing.assert_array_equal(flat[x * nz + z], row_flat)
        np.testing.assert_array_equal(lifted[x * nz + z], row_lifted)


def test_nu_xz_product_y_component(product_222):
    codec = StateCodec.for_labels(product_222, ("X", "Y"))
    flat_bank, _ = nu_xz(product_222)
    y_mass = np.zeros(2)
    for flat, mass in enumerate(flat_bank[0 * product_222.dims.nz + 1]):  # (x, z) = (0, 1)
        _, y = codec.decode(flat)
        y_mass[y] += mass
    np.testing.assert_allclose(y_mass, [0.6, 0.4], atol=1e-15)


# ---------------------------------------------------------------------------
# invariants across the corpus (spot sample; the acceptance suite covers all)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_row_sums_within_tolerance(corpus, index):
    pmf = corpus[index]
    for factory in (block_kernel, rotated_block_kernel, ooo_kernel,
                    marginal_xy_kernel, marginal_z_kernel):
        k = factory(pmf)
        assert np.abs(k.matrix.sum(axis=1) - 1.0).max() < 1e-12


def test_pi_is_not_ooo_invariant(anti_pmf):
    k = ooo_kernel(anti_pmf)
    pi_vec = flatten_to_codec(anti_pmf, k.codec)
    assert np.abs(pi_vec @ k.matrix - pi_vec).sum() > 1e-6


# ---------------------------------------------------------------------------
# csv export
# ---------------------------------------------------------------------------
def test_kernel_csv_round_trip(tmp_path, anti_pmf):
    k = block_kernel(anti_pmf)
    path = tmp_path / "kernel.csv"
    k.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state", "x0_y0_z0", "x0_y1_z0", "x1_y0_z0", "x1_y1_z0"]
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    np.testing.assert_array_equal(values, k.matrix)
