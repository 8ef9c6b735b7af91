"""Tests for the kernel factories, state codecs, and start measures.

Stationary claims are verified against a left-eigenvector oracle (dense eig
of the transpose), which shares no code with the package's square
stationary solve.
"""

import itertools

import numpy as np
import pytest

from blockgibbs import (
    Dims,
    JointPmf3,
    Kernel,
    StateCodec,
    analyze,
    block_kernel,
    conditional,
    flatten_to_codec,
    gibbs_kernel,
    kernels,
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
from conftest import kernel_matrix, kernel_rows, stationary_by_eig


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
    with pytest.raises(ValueError, match="^state tuple has wrong length$"):
        codec.encode((1, 0))
    for labels, sizes, message in (
        (("X", "Y"), (2,), "labels and sizes must be nonempty and equal length"),
        ((), (), "labels and sizes must be nonempty and equal length"),
        (("X", "X"), (2, 2), "labels must be distinct members of"),
        (("X", "W"), (2, 2), "labels must be distinct members of"),
        (("X", "Y"), (2, 0), "all sizes must be >= 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            StateCodec(labels, sizes)


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
    with pytest.raises(ValueError, match="sum to 1"):
        Kernel(codec, (("zc", np.array([[0.5, 0.4], [0.5, 0.5]])),))  # row sums 0.9
    with pytest.raises(ValueError, match="nonnegative"):
        Kernel(codec, (("zc", np.array([[1.5, -0.5], [0.0, 1.0]])),))  # negative entry
    # each table's axes are the sizes of its letters on the codec
    yzx = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))  # ny, nz, nx = 2, 2, 3
    uniform = np.full((3, 2, 2, 3), 1.0 / yzx.size)
    for sub, table in (("xbca", uniform[:2]), ("xbca", uniform.reshape(3, 12)), ("xbcy", uniform)):
        with pytest.raises(ValueError, match="does not match"):
            Kernel(yzx, ((sub, table),))
    # state i reads row i % r, so the coordinates read are a suffix of the
    # codec, and every coordinate is drawn
    for updates in ((("ybca", np.full((2, 2, 2, 3), 1.0 / yzx.size)),),  # reads y but not z
                    (("xbc", uniform.sum(axis=3)),)):  # never draws x
        with pytest.raises(ValueError, match="suffix"):
            Kernel(yzx, updates)
    shared = Kernel(codec, (("c", np.array([0.5, 0.5])),))
    np.testing.assert_array_equal(kernel_matrix(shared), [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_array_equal(shared.core, [[1.0]])


@pytest.mark.parametrize("factory", [block_kernel, rotated_block_kernel, ooo_kernel])
def test_two_block_sweeps_refuse_an_empty_xz_cell(factory):
    # every z-slice and every (x, y) cell has mass, but (x, z) = (0, 0) has
    # none: all three sweeps draw Y given (x, z), so none of them exists
    p = np.array([0, 0.2, 0, 0.2, 0.15, 0.15, 0.15, 0.15]).reshape(2, 2, 2)
    pmf = JointPmf3(Dims(2, 2, 2), p)
    with pytest.raises(ValueError, match=r"conditioning cell \(X=0, Z=0\) has zero probability"):
        factory(pmf)


def test_step_sums_over_readers_unless_the_index_is_the_identity(pmf_322):
    # with one dense table every state reads its own row, and a step is the
    # vector-matrix product up to the order of its two-term sums
    codec = StateCodec.for_labels(pmf_322, ("Z",))
    rows = np.array([[0.5, 0.5], [0.1, 0.9]])
    v = np.array([[0.3, 0.7], [1.0, 0.0]])
    k = Kernel(codec, (("zc", rows),))
    np.testing.assert_array_max_ulp(k.step(v), v @ rows, maxulp=1)
    np.testing.assert_array_max_ulp(k.step(v[0]), v[0] @ rows, maxulp=1)


@pytest.mark.parametrize("r", [3])
def test_a_tiled_kernel_sums_each_rows_readers_left_to_right(pmf_322, r):
    # a table reading only x, the last coordinate of codec (Y, Z, X): state
    # i reads row i % 3, 4 readers per row of 12 states
    yzx = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    s = yzx.size
    rng = np.random.default_rng(r)
    rows = rng.random((r, s))
    rows /= rows.sum(axis=1, keepdims=True)
    k = Kernel(yzx, (("xbca", rows.reshape(r, 2, 2, r)),))
    k_rows, k_matrix = kernel_rows(k), kernel_matrix(k)
    np.testing.assert_array_equal(k_rows, rows)
    for i in range(s):
        np.testing.assert_array_equal(k_matrix[i], k_rows[i % r])
    bank = rng.random((5, s))
    bank /= bank.sum(axis=1, keepdims=True)
    readers = bank[:, :r].copy()
    for start in range(r, s, r):
        readers = readers + bank[:, start:start + r]
    np.testing.assert_allclose(k.step(bank), readers @ k_rows, rtol=0, atol=1e-15)
    np.testing.assert_allclose(k.step(bank[0]), readers[0] @ k_rows, rtol=0, atol=1e-15)
    np.testing.assert_allclose(k.step(bank), bank @ k_matrix, rtol=0, atol=1e-15)
    core = k_rows[:, :r].copy()
    for start in range(r, s, r):
        core = core + k_rows[:, start:start + r]
    np.testing.assert_array_equal(k.core, core)


# ---------------------------------------------------------------------------
# gibbs_kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ordering", list(itertools.permutations("XYZ")))
def test_gibbs_product_pmf_is_rank_one(product_222, ordering):
    k = gibbs_kernel(product_222, ordering)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(kernel_matrix(k), np.tile(flat, (flat.size, 1)), atol=1e-15)


@pytest.mark.parametrize("ordering", list(itertools.permutations("XYZ")))
def test_gibbs_stationary_is_target_for_all_orderings(pmf_322, ordering):
    k = gibbs_kernel(pmf_322, ordering)
    v = stationary_by_eig(kernel_matrix(k))
    assert np.abs(v - flatten_to_codec(pmf_322, k.codec)).sum() < 1e-12


def test_gibbs_trivial_space():
    pmf = JointPmf3(Dims(1, 1, 1), np.ones((1, 1, 1)))
    np.testing.assert_array_equal(kernel_matrix(gibbs_kernel(pmf, "XYZ")), [[1.0]])


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
    k_matrix = kernel_matrix(k)
    nx, ny, nz = pmf_322.dims.shape
    for z in range(nz):
        rows = [
            k_matrix[k.codec.encode((x, y, z))]
            for x in range(nx)
            for y in range(ny)
        ]
        for row in rows[1:]:
            np.testing.assert_array_equal(row, rows[0])


def test_block_product_is_rank_one(product_222):
    k = block_kernel(product_222)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(kernel_matrix(k), np.tile(flat, (flat.size, 1)), atol=1e-15)


def test_block_stationary_is_target(pmf_322):
    k = block_kernel(pmf_322)
    v = stationary_by_eig(kernel_matrix(k))
    assert np.abs(v - flatten_to_codec(pmf_322, k.codec)).sum() < 1e-12


# ---------------------------------------------------------------------------
# rotated_block_kernel
# ---------------------------------------------------------------------------
def test_rotated_stationary_is_target_reindexed(pmf_322):
    k = rotated_block_kernel(pmf_322)
    assert k.codec.labels == ("Z", "X", "Y")
    v = stationary_by_eig(kernel_matrix(k))
    assert np.abs(v - flatten_to_codec(pmf_322, k.codec)).sum() < 1e-12


def test_rotated_spectrum_matches_block(pmf_322):
    # both compose the same two conditional refreshes in opposite order
    a = np.sort_complex(np.linalg.eigvals(kernel_matrix(block_kernel(pmf_322))))
    b = np.sort_complex(np.linalg.eigvals(kernel_matrix(rotated_block_kernel(pmf_322))))
    assert np.abs(a - b).max() < 1e-8


def test_rotated_product_is_rank_one(product_222):
    k = rotated_block_kernel(product_222)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(kernel_matrix(k), np.tile(flat, (flat.size, 1)), atol=1e-15)


# ---------------------------------------------------------------------------
# ooo_kernel
# ---------------------------------------------------------------------------
def test_ooo_rows_ignore_y(pmf_322):
    k = ooo_kernel(pmf_322)
    k_matrix = kernel_matrix(k)
    nx, ny, nz = pmf_322.dims.shape
    for z, x in itertools.product(range(nz), range(nx)):
        base = k_matrix[k.codec.encode((0, z, x))]
        for y in range(1, ny):
            np.testing.assert_array_equal(k_matrix[k.codec.encode((y, z, x))], base)


def test_ooo_stationary_is_pi_star(pmf_322):
    k = ooo_kernel(pmf_322)
    assert k.codec.labels == ("Y", "Z", "X")
    v = stationary_by_eig(kernel_matrix(k))
    assert np.abs(v - flatten_to_codec(pi_star(pmf_322), k.codec)).sum() < 1e-12


def test_ooo_anti_example_erases_xy_dependence(anti_pmf):
    k = ooo_kernel(anti_pmf)
    v = stationary_by_eig(kernel_matrix(k))  # over (y, z, x)
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
    flow = pi_xy[:, None] * kernel_matrix(k)
    assert np.abs(flow - flow.T).max() < 1e-12


def test_marginal_z_reversible(pmf_322):
    k = marginal_z_kernel(pmf_322)
    pi_z = flatten_to_codec(pmf_322, k.codec)
    flow = pi_z[:, None] * kernel_matrix(k)
    assert np.abs(flow - flow.T).max() < 1e-12


def test_marginal_kernels_are_the_sweep_cores(corpus, anti_pmf):
    # K_z is the block core and K_xy the rotated core: the sweep's own
    # updates on the coordinates its rows read, the others summed out. Each
    # is a view of its sweep that shares its updates, factor pair, eigenvalue
    # array and stationary solve, whichever of the two solves first.
    pairs = ((marginal_z_kernel, block_kernel, ("Z",)),
             (marginal_xy_kernel, rotated_block_kernel, ("X", "Y")))
    for i, pmf in enumerate(corpus[:4] + [anti_pmf]):
        for marginal_factory, sweep_factory, labels in pairs:
            chain, sweep = marginal_factory(pmf), sweep_factory(pmf)
            assert chain.codec == StateCodec.for_labels(pmf, labels)
            for name in ("updates", "factors", "reduced"):
                assert getattr(chain, name) is getattr(sweep, name), name
            first, second = (chain, sweep) if i % 2 else (sweep, chain)
            for name in ("core", "core_eigenvalues", "core_stationary"):
                assert getattr(first, name) is getattr(second, name), name
            np.testing.assert_allclose(kernel_rows(chain), sweep.core, rtol=0, atol=1e-15)


def test_a_marginal_chain_builds_nothing(monkeypatch, pmf_322):
    # across one analyze, only the three sweeps are constructed, and every
    # factor contraction is one of theirs
    built, contracting, contracted = [], [], []

    def post_init(kernel):
        contracting.append(kernel)
        try:
            real_post_init(kernel)
        finally:
            contracting.pop()
        built.append(kernel)

    def contract(*args):
        contracted.append(contracting[-1])
        return real_contract(*args)

    real_post_init, real_contract = Kernel.__post_init__, kernels._contract
    monkeypatch.setattr(Kernel, "__post_init__", post_init)
    monkeypatch.setattr(kernels, "_contract", contract)
    analyze(pmf_322, nmax=10)
    sweeps = [factory(pmf_322) for factory in (block_kernel, rotated_block_kernel, ooo_kernel)]
    assert sorted(map(id, built)) == sorted(map(id, sweeps))
    assert {id(k) for k in contracted} == set(map(id, sweeps))
    assert len(contracted) <= 2 * len(sweeps)


def test_the_shared_core_solve_is_the_chains_own(corpus, anti_pmf):
    # a marginal chain takes its sweep's stationary solve; splitting and
    # solving the chain's own cycle afresh gives the same bits, so sharing
    # moves no value
    for pmf in corpus + [anti_pmf]:
        for chain in (marginal_z_kernel(pmf), marginal_xy_kernel(pmf)):
            fresh = Kernel(chain.codec, chain.updates)
            for got, want in zip(fresh.factors, chain.factors):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(fresh.core_stationary, chain.core_stationary)


def test_marginal_kernels_share_nonzero_spectrum(pmf_322):
    a = nonzero_eig_multiset(kernel_matrix(marginal_xy_kernel(pmf_322)))
    b = nonzero_eig_multiset(kernel_matrix(marginal_z_kernel(pmf_322)))
    assert a.size == b.size
    assert np.abs(a - b).max() < 1e-8


def test_marginal_xy_product_is_rank_one(product_222):
    k = marginal_xy_kernel(product_222)
    flat = flatten_to_codec(product_222, k.codec)
    np.testing.assert_allclose(kernel_matrix(k), np.tile(flat, (flat.size, 1)), atol=1e-15)


def test_single_z_collapses_marginals(anti_pmf):
    k_xy = marginal_xy_kernel(anti_pmf)
    pi_xy = flatten_to_codec(anti_pmf, k_xy.codec)
    np.testing.assert_allclose(kernel_matrix(k_xy), np.tile(pi_xy, (4, 1)), atol=1e-15)
    np.testing.assert_array_equal(kernel_matrix(marginal_z_kernel(anti_pmf)), [[1.0]])


# ---------------------------------------------------------------------------
# start measures
# ---------------------------------------------------------------------------
def test_nu_z_mass_and_support(pmf_322):
    bank = nu_z(pmf_322)
    codec = StateCodec.for_labels(pmf_322, ("Z", "X"))
    assert bank.shape == (pmf_322.dims.nz, codec.size)
    cond = conditional(pmf_322, ("X",), ("Z",))
    for z, row in enumerate(bank):
        assert abs(row.sum() - 1.0) < 1e-15
        for flat, mass in enumerate(row):
            zz, x = codec.decode(flat)
            if mass > 0:
                assert zz == z
            if zz == z:
                assert mass == cond[z, x]


def test_nu_z_one_step_ignores_dummy_y(pmf_322):
    # lifted to the out-of-order codec (Y, Z, X), the measure may park its
    # dummy Y at y = 0, the first states, as check_prop1 lifts it, or at
    # y = 1: one step gives the same law
    k = ooo_kernel(pmf_322)
    row = nu_z(pmf_322)[0]
    zx = StateCodec.for_labels(pmf_322, ("Z", "X"))
    lifts = np.zeros((2, k.codec.size))
    for flat, mass in enumerate(row):
        z, x = zx.decode(flat)
        for y in (0, 1):
            lifts[y, k.codec.encode((y, z, x))] = mass
    np.testing.assert_array_equal(lifts[0, : row.size], row)
    assert not lifts[0, row.size :].any()
    after = lifts @ kernel_matrix(k)
    np.testing.assert_allclose(after[0], after[1], atol=1e-15)


def test_nu_z_product_x_component(product_222):
    codec = StateCodec.for_labels(product_222, ("Z", "X"))
    x_mass = np.zeros(2)
    for flat, mass in enumerate(nu_z(product_222)[0]):
        _, x = codec.decode(flat)
        x_mass[x] += mass
    np.testing.assert_allclose(x_mass, [0.3, 0.7], atol=1e-15)


def test_nu_xz_mass_and_lift_identity(pmf_322):
    flat_bank = nu_xz(pmf_322)
    nx, ny, nz = pmf_322.dims.shape
    assert flat_bank.shape == (nx * nz, nx * ny)
    np.testing.assert_allclose(flat_bank.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    # one rotated step from the lift to codec (Z, X, Y) with a dummy z = 0,
    # projected onto (X, Y), equals one xy-marginal step from the flat
    # measure, exactly; row x * nz + z pins (x, z) = (1, 0)
    k_rot = rotated_block_kernel(pmf_322)
    k_xy = marginal_xy_kernel(pmf_322)
    i = 1 * nz + 0
    lifted = np.zeros(k_rot.codec.size)
    lifted[: nx * ny] = flat_bank[i]  # the z = 0 states, in the flat codec's order
    after_rot = lifted @ kernel_matrix(k_rot)
    proj = np.zeros(k_xy.codec.size)
    for flat, mass in enumerate(after_rot):
        z, x, y = k_rot.codec.decode(flat)
        proj[k_xy.codec.encode((x, y))] += mass
    after_xy = flat_bank[i] @ kernel_matrix(k_xy)
    np.testing.assert_allclose(proj, after_xy, atol=1e-15)


def test_start_measures_are_rows_of_the_kept_banks(pmf_322):
    # each bank is built once per pmf, kept on it and read-only; row z of
    # nu_z and row x * nz + z of nu_xz hold the measure pinning those
    # coordinates, built here one row at a time from the conditionals
    nx, ny, nz = pmf_322.dims.shape
    z_bank = nu_z(pmf_322)
    flat = nu_xz(pmf_322)
    assert z_bank is nu_z(pmf_322) and flat is nu_xz(pmf_322)
    assert not (z_bank.flags.writeable or flat.flags.writeable)
    p_x_z = conditional(pmf_322, ("X",), ("Z",))  # (z, x)
    p_y_xz = conditional(pmf_322, ("Y",), ("X", "Z"))  # (x, z, y)
    zx = StateCodec.for_labels(pmf_322, ("Z", "X"))
    xy = StateCodec.for_labels(pmf_322, ("X", "Y"))
    for z in range(nz):
        row = np.zeros(zx.size)
        for x in range(nx):
            row[zx.encode((z, x))] = p_x_z[z, x]
        np.testing.assert_array_equal(z_bank[z], row)
    for x, z in itertools.product(range(nx), range(nz)):
        row_flat = np.zeros(xy.size)
        for y in range(ny):
            row_flat[xy.encode((x, y))] = p_y_xz[x, z, y]
        np.testing.assert_array_equal(flat[x * nz + z], row_flat)


def test_nu_xz_product_y_component(product_222):
    codec = StateCodec.for_labels(product_222, ("X", "Y"))
    flat_bank = nu_xz(product_222)
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
        assert np.abs(kernel_matrix(k).sum(axis=1) - 1.0).max() < 1e-12


def test_pi_is_not_ooo_invariant(anti_pmf):
    k = ooo_kernel(anti_pmf)
    pi_vec = flatten_to_codec(anti_pmf, k.codec)
    assert np.abs(pi_vec @ kernel_matrix(k) - pi_vec).sum() > 1e-6
