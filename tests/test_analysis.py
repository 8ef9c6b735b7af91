"""Tests for stationary solves, TV curves, spectra, and the checkers.

Power iteration and explicit matrix powers serve as the independent oracles
for the linear-solve and iterated-product paths respectively.
"""

import json
import tracemalloc

import numpy as np
import pytest

from blockgibbs import (
    Dims,
    JointPmf3,
    Kernel,
    StateCodec,
    analysis,
    analyze,
    block_kernel,
    check_marginal_agreement,
    check_pistar_invariance,
    check_prop1,
    check_rate_equality,
    conditional,
    flatten_to_codec,
    marginal,
    marginal_xy_kernel,
    marginal_z_kernel,
    nu_z,
    ooo_kernel,
    pi_star,
    product_pmf,
    random_pmf,
    rotated_block_kernel,
    spectrum,
    stationary,
    tv,
    tv_curve,
)
from conftest import kernel_matrix, kernel_rows


def stationary_by_power_iteration(matrix, tol=1e-14, max_iter=200_000):
    v = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(max_iter):
        nxt = v @ matrix
        if np.abs(nxt - v).sum() < tol:
            return nxt
        v = nxt
    return v


def two_state_kernel(p: float) -> Kernel:
    codec = StateCodec(("Z",), (2,))
    return Kernel(codec, (("zc", np.array([[1 - p, p], [p, 1 - p]])),))


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------
def test_stationary_of_rank_one_kernel_is_its_row(product_222):
    k = block_kernel(product_222)
    np.testing.assert_allclose(
        stationary(k)[0], flatten_to_codec(product_222, k.codec), atol=1e-13
    )


def test_stationary_matches_power_iteration(pmf_322):
    k = block_kernel(pmf_322)
    v, residual = stationary(k)
    assert np.abs(v - stationary_by_power_iteration(kernel_matrix(k))).sum() < 1e-10
    assert residual == float(np.abs(k.step(v) - v).sum())  # the one analyze reports


def test_stationary_of_ooo_matches_pi_star_by_power_iteration(pmf_322):
    k = ooo_kernel(pmf_322)
    v, _ = stationary(k)
    assert np.abs(v - stationary_by_power_iteration(kernel_matrix(k))).sum() < 1e-10
    assert np.abs(v - flatten_to_codec(pi_star(pmf_322), k.codec)).sum() < 1e-10


def test_stationary_rejects_reducible_kernel():
    k = Kernel(StateCodec(("Z",), (2,)), (("zc", np.eye(2)),))
    with pytest.raises(ValueError, match="multiplicity"):
        stationary(k)


# ---------------------------------------------------------------------------
# tv_curve
# ---------------------------------------------------------------------------
def test_tv_curve_from_stationary_is_zero(pmf_322):
    k = block_kernel(pmf_322)
    v, _ = stationary(k)
    assert tv_curve(k, v, v, 10, ((kernel_rows(k), v),))[0].max() < 1e-13


def test_tv_curve_rank_one_hits_target_after_one_step(product_222):
    k = block_kernel(product_222)
    target = flatten_to_codec(product_222, k.codec)
    curve = tv_curve(k, np.eye(k.codec.size)[0], target, 5, ((kernel_rows(k), target),))[0]
    assert curve[0] > 0.1
    assert curve[1:].max() < 1e-14


def test_tv_curve_of_a_bank_is_the_curves_of_its_rows(pmf_322):
    # a bank's curve [n, i] is the curve of row i given alone: bit for bit
    # at n = 0, where both reduce the same row the same way. A step of a
    # bank is a matrix-matrix product and a step of one row a vector-matrix
    # product, which BLAS may sum in different orders, so later entries
    # agree to rounding: eight steps of 12-term sums stay far inside 1e-14.
    k = ooo_kernel(pmf_322)
    target = flatten_to_codec(pi_star(pmf_322), k.codec)
    rows = kernel_rows(k)
    bank = np.vstack([np.eye(k.codec.size)[: k.codec.size // 2], target, rows])
    law = ((rows, target),)
    curves = tv_curve(k, bank, target, 8, law)[0]
    assert curves.shape == (9, bank.shape[0])
    for i, row in enumerate(bank):
        alone = tv_curve(k, row, target, 8, law)[0]
        assert alone.shape == (9,) and alone[0] == curves[0, i]
        np.testing.assert_allclose(curves[:, i], alone, rtol=0, atol=1e-14)
    for nmax in (0, -1):
        with pytest.raises(ValueError, match="nmax"):
            tv_curve(k, bank, target, nmax, law)


def test_tv_curve_reads_the_coordinates_the_last_update_reads(pmf_322):
    # the block sweep ends with Z | (X, Y), which its target shares, so the
    # distance over (x', y') is the distance over all states, read with P =
    # rows
    k = block_kernel(pmf_322)
    target = flatten_to_codec(pmf_322, k.codec)
    start = np.vstack([np.eye(k.codec.size)[:5], target])
    rows = kernel_rows(k)
    p_xy = conditional(pmf_322, ("X", "Y"), ("Z",)).reshape(rows.shape[0], -1)
    reads = ((rows, target), (p_xy, marginal(pmf_322, ("X", "Y")).ravel()))
    full, read = tv_curve(k, start, target, 6, reads)
    np.testing.assert_allclose(read, full, rtol=0, atol=1e-15)


def tv_curve_one_step_at_a_time(kernel, start, target, nmax, reads):
    """The curve loop with its steps unchunked: the mass on each row read
    through each law at step 1, then one U L product per step and one
    distance per law, read through U P - 1 t^T, its target folded in, each
    row summed by einsum. The reference for bit-identity."""
    cur = np.asarray(start, dtype=float)
    out = np.empty((len(reads), nmax + 1) + cur.shape[:-1])
    out[:, 0] = np.add.reduce(np.abs(cur - target), axis=-1)
    l, u = kernel.factors
    cur = cur.reshape(cur.shape[:-1] + (-1, len(l))).sum(axis=-2)  # the mass on each row
    for n in range(1, nmax + 1):
        if n > 1:
            cur = cur @ l if n == 2 else cur @ kernel.reduced
        for curve, (law, t) in zip(out, reads):
            if n == 1:
                d = cur - t if law is None else cur @ law - t
            else:
                d = cur @ ((u if law is None else u @ law) - t)
            np.einsum("...j->...", np.abs(d), out=curve[n, ...])
    out *= 0.5
    return out


def prop1_curve_calls(monkeypatch, pmf, nmax):
    """The (kernel, start, target, nmax, reads) of check_prop1's
    tv_curve calls."""
    calls = []
    real = analysis.tv_curve
    monkeypatch.setattr(analysis, "tv_curve", lambda *args: calls.append(args) or real(*args))
    check_prop1(pmf, nmax)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "dims, nmax, regime",
    [
        ((2, 2, 2), 50, "one chunk"),  # 4 rows x 4 wide x steps 2..50 fit in 65,536
        ((16, 16, 16), 12, "one step"),  # 256 rows x 256 wide = 65,536
        ((8, 8, 8), 200, "partial"),  # 64 rows x 64 wide: steps 2..200 in chunks of 16, then 7
    ],
)
def test_chunked_tv_curve_is_bitwise_one_step_at_a_time(monkeypatch, corpus, dims, nmax, regime):
    # the regime is that of the K_xy call: the nx * nz rows of nu_xz, read
    # through K_xy itself, P(Z | X,Y) and Q, the widest; check_prop1's K_z
    # call and the full-width reads fall in one regime or another too
    pmf = corpus[0] if dims == (2, 2, 2) else random_pmf(Dims(*dims), seed=15, floor=1e-4)
    assert tuple(pmf.dims.shape) == dims
    calls = prop1_curve_calls(monkeypatch, pmf, nmax)
    kernel, start, _, n, reads = calls[1]
    assert kernel is marginal_xy_kernel(pmf)
    widest = max(len(kernel.factors[0]) if law is None else law.shape[1] for law, _ in reads)
    chunk = min(n - 1, max(1, analysis.TV_CHUNK_FLOATS // (len(start) * widest)))  # steps 2..n
    steps = n - 1
    assert {"one chunk": chunk == steps, "one step": chunk == 1,
            "partial": 1 < chunk < steps and steps % chunk}[regime]
    for kernel, start, target, n, reads in calls:
        rows = ((kernel_rows(kernel), target),)
        for bank, laws in ((start, reads), (start, rows), (start[0], reads), (start[-1], rows)):
            chunked = tv_curve(kernel, bank, target, n, laws)
            stepped = tv_curve_one_step_at_a_time(kernel, bank, target, n, laws)
            assert chunked.shape == stepped.shape
            assert chunked.tobytes() == stepped.tobytes()


@pytest.mark.parametrize("n", [3, 8])
def test_tv_curve_memory_does_not_grow_with_nmax(n):
    # past its output, tv_curve holds a chunk of steps at a time: the peak
    # is the same at nmax 1,000 and 4,000, both past a chunk's steps (606 at
    # 3^3, 14 at 8^3), where stacking every step's weights would add 4,000 x
    # rows x r float64s (3.5 MB at 3^3). The slack covers the int objects of
    # a longer range.
    pmf = random_pmf(Dims(n, n, n), seed=16, floor=1e-4)
    k = ooo_kernel(pmf)
    rows = kernel_rows(k)
    lifted = np.zeros((n, k.codec.size))  # nu_z on the y = 0 states of (Y, Z, X)
    lifted[:, : n * n] = nu_z(pmf)
    bank = np.vstack([rows, lifted])
    target = flatten_to_codec(pi_star(pmf), k.codec)
    law = ((rows, target),)
    tv_curve(k, bank, target, 3, law)  # cached cores and first-call allocations
    assert analysis.TV_CHUNK_FLOATS // (len(bank) * len(rows)) < 1000 - 1  # the budget binds

    def peak(nmax):
        tracemalloc.start()
        try:
            out = tv_curve(k, bank, target, nmax, law)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    short, long = peak(1000), peak(4000)
    assert abs(long - short) < 1024, (short, long)


def test_tv_curve_rejects_shapes_that_would_broadcast(corpus):
    # numpy would broadcast each of these into wrong curves (a one-entry
    # target gives distances near 0.25 at every step) instead of failing
    pmf = corpus[2]
    k = block_kernel(pmf)
    s, r = k.codec.size, k.core.shape[0]
    target = flatten_to_codec(pmf, k.codec)
    start = np.eye(s)[:4]
    p_xy = conditional(pmf, ("X", "Y"), ("Z",)).reshape(r, -1)
    pi_xy = marginal(pmf, ("X", "Y")).ravel()
    law = ((kernel_rows(k), target),)
    bad = [
        ((k, start[:, :1], target, 5, law), rf"start shape \(4, 1\).*\b{s}\b"),
        ((k, np.ones(s + 1) / (s + 1), target, 5, law), rf"start shape \({s + 1},\).*\b{s}\b"),
        ((k, start, target[:1], 5, law), rf"target shape \(1,\).*\({s},\)"),
        ((k, start, target, 5, ((p_xy, pi_xy[:1]),)), rf"\({r}, {p_xy.shape[1]}\).*\(1,\)"),
        ((k, start, target, 5, ((p_xy, target),)), rf"\({r}, {p_xy.shape[1]}\).*\({s},\)"),
        ((k, start, target, 5, ((None, target),)), rf"\({r}, {r}\).*\({s},\)"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            tv_curve(*args)


def test_tv_curve_rejects_a_start_row_whose_mass_is_not_one(corpus):
    # past step 1 each read's target is folded into its law, which holds only
    # for weights of mass 1: a row of mass 0.9 would read every later
    # distance against 0.9 t
    pmf = corpus[2]
    k = block_kernel(pmf)
    target = flatten_to_codec(pmf, k.codec)
    bank = np.vstack([target, np.eye(k.codec.size)[:3]])
    bank[2] *= 0.9
    law = ((kernel_rows(k), target),)
    with pytest.raises(ValueError, match=r"start row 2 has mass 0\.9, not 1 within 1e-13"):
        tv_curve(k, bank, target, 5, law)
    assert tv_curve(k, np.delete(bank, 2, axis=0), target, 5, law).shape == (1, 6, 3)


@pytest.mark.parametrize("index", [1, 2, 3, 7])
def test_tv_curves_are_nonincreasing(corpus, index):
    pmf = corpus[index]
    for factory, target_pmf in ((block_kernel, pmf), (ooo_kernel, pi_star(pmf))):
        k = factory(pmf)
        target = flatten_to_codec(target_pmf, k.codec)
        curve = tv_curve(k, np.eye(k.codec.size)[0], target, 60, ((kernel_rows(k), target),))[0]
        assert (np.diff(curve) <= 1e-12).all()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------
def test_spectrum_rank_one(product_222):
    s = spectrum(block_kernel(product_222))
    assert s.slem < 1e-12
    assert s.unit_multiplicity == 1


def test_spectrum_two_state_closed_form():
    # eigenvalues of [[1-p, p], [p, 1-p]] are 1 and 1 - 2p
    s = spectrum(two_state_kernel(0.3))
    assert s.slem == pytest.approx(0.4, abs=1e-14)
    np.testing.assert_allclose(s.moduli, [1.0, 0.4], atol=1e-14)


def test_slem_matches_tv_decay_exponent(corpus):
    # log-linear regression on the curve tail, for members with slem > 0.1
    checked = 0
    for pmf in corpus:
        k = block_kernel(pmf)
        slem = spectrum(k).slem
        if slem <= 0.1:
            continue
        target = flatten_to_codec(pmf, k.codec)
        states = np.eye(k.codec.size)
        law = ((kernel_rows(k), target),)
        start = int(np.argmax(tv_curve(k, states[0], target, 1, law)[0]))  # any fixed start works
        curve = tv_curve(k, states[start], target, 400, law)[0]
        window = np.where((curve > 1e-10) & (curve < 1e-3))[0]
        slope = np.polyfit(window, np.log(curve[window]), 1)[0]
        assert abs(np.exp(slope) - slem) / slem < 0.05
        checked += 1
    assert checked > 10


def test_consecutive_tv_ratio_converges_to_slem(corpus):
    for pmf in corpus[:12]:
        k = block_kernel(pmf)
        slem = spectrum(k).slem
        if slem < 1e-3:
            continue
        target = flatten_to_codec(pmf, k.codec)
        curve = tv_curve(k, np.eye(k.codec.size)[0], target, 400, ((kernel_rows(k), target),))[0]
        above = np.where(curve > 1e-10)[0]
        n = above[-1] - 1
        while curve[n + 1] <= 1e-10:
            n -= 1
        ratio = curve[n + 1] / curve[n]
        assert abs(ratio - slem) / slem < 0.01


# ---------------------------------------------------------------------------
# check_prop1
# ---------------------------------------------------------------------------
def test_prop1_product_pmf_all_zero(product_222):
    report = check_prop1(product_222, nmax=6)
    assert report.verdict
    # rank-one kernels: every term vanishes once its kernel power is >= 1
    assert np.nanmax(report.chain1[2:]) < 1e-14  # n >= 3
    assert report.chain2[:, 0].max() < 1e-14  # left term, n >= 1
    # at n = 1 the middle/right terms are distances of the start measure
    # itself (0-th kernel power), nonzero even here; from n = 2 they vanish
    assert report.chain2[1:, 1:].max() < 1e-14


def test_prop1_seeded_pmf_holds_and_matches_matrix_power_oracle():
    pmf = random_pmf(Dims(2, 2, 2), seed=4, floor=0.01)
    report = check_prop1(pmf, nmax=12)
    assert report.verdict
    assert report.max_violation <= report.tol
    assert report.violations == []

    # worst-case block-sweep distance at n = 5 against an explicit power
    k = block_kernel(pmf)
    target = flatten_to_codec(pmf, k.codec)
    p5 = np.linalg.matrix_power(kernel_matrix(k), 5)
    want = max(tv(row, target) for row in p5)
    assert report.chain1[4, 0] == pytest.approx(want, abs=1e-12)

    # worst-case z-marginal distance at n = 4 (the n = 5 middle term)
    kz = marginal_z_kernel(pmf)
    tz = flatten_to_codec(pmf, kz.codec)
    q4 = np.linalg.matrix_power(kernel_matrix(kz), 4)
    assert report.chain1[4, 1] == pytest.approx(
        max(tv(row, tz) for row in q4), abs=1e-12
    )


def test_prop1_anti_example_z_terms_vanish(anti_pmf):
    report = check_prop1(anti_pmf, nmax=8)
    assert report.verdict
    assert np.nanmax(report.chain1[:, 1]) < 1e-15  # one-point Z marginal


def test_prop1_reports_n2_without_verdict(pmf_322):
    report = check_prop1(pmf_322, nmax=5)
    assert report.chain1_ok[0] is None and report.chain1_ok[1] is None
    assert not np.isnan(report.chain1[1, 2])  # n = 2 value still reported
    assert np.isnan(report.chain1[0, 2])  # n = 1 right term undefined
    assert all(isinstance(ok, bool) for ok in report.chain2_ok)


def test_prop1_requires_nmax_three(pmf_322):
    with pytest.raises(ValueError):
        check_prop1(pmf_322, nmax=2)


def test_prop1_negative_tol_records_every_pair(pmf_322):
    # tol = -1 is below every gap, so each checked (lhs, rhs) pair is a
    # violation: per n, chain 1's (block, z-marginal) and (z-marginal, nu_z)
    # pairs from n = 3, then chain 2's (ooo, nu_xz) and (nu_xz, lifted nu_xz)
    # pairs from n = 1; the list stops at 20 entries (n = 6)
    report = check_prop1(pmf_322, nmax=8, tol=-1.0)
    expected = [
        (2, 1, "y0_z0_x0", 0.24265642959406386, 0.6076522076395303),
        (2, 1, 4, 0.7075183811362975, 0.827658469952883),
        (2, 2, "y0_z1_x0", 0.008991175515929284, 0.01674575597739969),
        (2, 2, 1, 0.01674575597739969, 0.04499967541031174),
        (1, 3, "x0_y0_z1", 0.006598060905015661, 0.01773049837008775),
        (1, 3, "z1", 0.01773049837008775, 0.08873886068662144),
        (2, 3, "y0_z1_x0", 0.0017964848950826305, 0.003345891492924427),
        (2, 3, 1, 0.003345891492924427, 0.008991175515929296),
        (1, 4, "x0_y0_z1", 0.0013183278128311143, 0.0035426482830546446),
        (1, 4, "z1", 0.0035426482830546446, 0.01773049837008782),
        (2, 4, "y0_z1_x0", 0.00035894727808864074, 0.0006685269926024126),
        (2, 4, 1, 0.0006685269926024126, 0.0017964848950826422),
        (1, 5, "x0_y0_z1", 0.00026340893894487337, 0.0007078400502606719),
        (1, 5, "z1", 0.0007078400502606719, 0.0035426482830546654),
        (2, 5, "y0_z1_x0", 7.171958350439891e-05, 0.00013357526410617826),
        (2, 5, 1, 0.00013357526410617826, 0.00035894727808867153),
        (1, 6, "x0_y0_z1", 5.263051301863638e-05, 0.0001414302230197395),
        (1, 6, "z1", 0.0001414302230197395, 0.0007078400502606979),
        (2, 6, "y0_z1_x0", 1.4329955879436793e-05, 2.6689051270158137e-05),
        (2, 6, 1, 2.6689051270158137e-05, 7.171958350440238e-05),
    ]
    assert [(v["chain"], v["n"], v["state"]) for v in report.violations] == [
        e[:3] for e in expected
    ]
    for v, (*_, lhs, rhs) in zip(report.violations, expected):
        assert v["lhs"] == pytest.approx(lhs, rel=1e-9)
        assert v["rhs"] == pytest.approx(rhs, rel=1e-9)
    assert report.chain1_ok == [None, None] + [False] * 6
    assert report.chain2_ok == [False] * 8
    assert not report.chain1_verdict and not report.chain2_verdict
    # the largest gap over all n, including those past the 20-entry cap
    assert report.max_violation == pytest.approx(-4.934019630919995e-07, rel=1e-6)

    # the tolerance moves only the verdicts and the violation list
    default = check_prop1(pmf_322, nmax=8)
    assert default.verdict and default.violations == []
    assert default.max_violation == report.max_violation
    np.testing.assert_array_equal(default.chain1, report.chain1)
    np.testing.assert_array_equal(default.chain2, report.chain2)


def test_prop1_violation_rows_do_not_turn_on_rounding():
    # with the x = 1 slice a copy of x = 0, rows that differ only in x tie;
    # nudging the copy by a relative 1e-13 either way leaves every violation
    # naming the same row
    base = random_pmf(Dims(2, 3, 2), seed=0, floor=0.01).p.copy()
    base[1] = base[0]
    named = []
    for sign in (1, -1):
        p = base.copy()
        p[1] *= 1 + sign * 1e-13
        report = check_prop1(JointPmf3(Dims(2, 3, 2), p / p.sum()), nmax=6, tol=-1.0)
        named.append([(v["chain"], v["n"], v["state"]) for v in report.violations])
    assert len(named[0]) == 20
    assert named[0] == named[1]


# ---------------------------------------------------------------------------
# check_rate_equality
# ---------------------------------------------------------------------------
def test_rate_equality_product_all_slems_zero(product_222):
    report = check_rate_equality(product_222)
    assert report.verdict
    assert all(s.slem < 1e-12 for s in report.spectra.values())


def test_rate_equality_seeded(pmf_322):
    report = check_rate_equality(pmf_322)
    assert report.verdict
    assert report.multiset_gap < 1e-8
    assert report.slem_gap < 1e-8
    assert all(s.unit_multiplicity == 1 for s in report.spectra.values())
    assert all(s.slem < 1 for s in report.spectra.values())


def test_rate_equality_single_z(anti_pmf):
    report = check_rate_equality(anti_pmf)
    assert report.verdict
    assert report.spectra["block"].slem < 1e-12
    assert report.spectra["marginal_z"].slem < 1e-12
    assert report.spectra["ooo"].slem == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# invariance and marginal agreement
# ---------------------------------------------------------------------------
def test_invariance_product(product_222):
    r_star, r_pi = check_pistar_invariance(product_222)
    assert r_star < 1e-14
    assert r_pi < 1e-14


def test_invariance_anti_example(anti_pmf):
    r_star, r_pi = check_pistar_invariance(anti_pmf)
    assert r_star < 1e-12
    assert r_pi > 0.1


@pytest.mark.parametrize("index", [0, 1, 2, 3, 10])
def test_invariance_corpus(corpus, index):
    r_star, _ = check_pistar_invariance(corpus[index])
    assert r_star <= 1e-12


def test_marginal_agreement_tables(anti_pmf, product_222, pmf_322):
    anti = check_marginal_agreement(anti_pmf)
    assert anti["XY"] == pytest.approx(0.3, abs=1e-12)
    for key in ("X", "Y", "Z", "XZ", "YZ"):
        assert anti[key] < 1e-15

    assert max(check_marginal_agreement(product_222).values()) < 1e-14

    seeded = check_marginal_agreement(pmf_322)
    assert seeded["XY"] > 1e-6
    assert max(seeded[k] for k in ("X", "Y", "Z", "XZ", "YZ")) <= 1e-14


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------
def test_analyze_report_serializes(pmf_322):
    report = analyze(pmf_322, nmax=10)
    doc = report.to_json_dict()
    text = json.dumps(doc)
    assert "NaN" not in text
    assert doc["prop1"]["verdict"] is True
    assert doc["rates"]["verdict"] is True
    assert max(report.stationary_residuals.values()) <= 1e-12
    assert max(report.stationary_target_gap.values()) <= 1e-10


def test_analyze_at_the_state_cap_holds_no_r_by_s_array():
    # at 16^3 the ooo and rotated rows would be 8.4 MB each; what analyze
    # holds is the tables (s floats each), the cores (at most 0.5 MB), the
    # nu banks (nz x nz * nx and nx * nz x nx * ny) and the s-wide vectors
    # of a step
    pmf = random_pmf(Dims(16, 16, 16), seed=2027, floor=1e-5)  # not kept elsewhere
    tracemalloc.start()
    try:
        analyze(pmf, nmax=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_check_prop1_takes_no_full_space_step(monkeypatch):
    # every curve steps weights through an r x r core and reads the last
    # update's coordinates, so no s-wide Kernel.step runs
    pmf = random_pmf(Dims(3, 2, 4), seed=2025, floor=0.005)  # not kept elsewhere
    calls = []
    step = Kernel.step
    monkeypatch.setattr(Kernel, "step", lambda self, v: calls.append(self) or step(self, v))
    assert check_prop1(pmf, nmax=10).verdict
    assert calls == []


def test_check_prop1_reads_the_ooo_curves_off_the_two_cores(monkeypatch):
    # the out-of-order sweep is the block chain half a sweep late, so two
    # iterations, on K_z and on K_xy, carry all six curves; the out-of-order
    # kernel is neither built nor read
    pmf = random_pmf(Dims(3, 2, 4), seed=2026, floor=0.005)  # not kept elsewhere
    monkeypatch.setattr(analysis, "ooo_kernel", lambda pmf: pytest.fail("built the ooo kernel"))
    calls = prop1_curve_calls(monkeypatch, pmf, 10)
    assert [args[0] for args in calls] == [marginal_z_kernel(pmf), marginal_xy_kernel(pmf)]


def test_analyze_derives_each_kernel_once(monkeypatch, pmf_322):
    # every check reads the same five kernels and pi_star off the pmf: one
    # construction per sweep, since K_z and K_xy are views of the block and
    # rotated sweeps, one pi_star, and one core eigensolve and one square
    # stationary solve per distinct core
    counts = {"eigvals": 0, "solve": 0, "lstsq": 0, "kernels": 0, "pmfs": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(Kernel, "__post_init__", counting("kernels", Kernel.__post_init__))
    monkeypatch.setattr(JointPmf3, "__post_init__", counting("pmfs", JointPmf3.__post_init__))
    analyze(pmf_322, nmax=10)
    assert counts == {"eigvals": 3, "solve": 3, "lstsq": 0, "kernels": 3, "pmfs": 1}

    factories = (block_kernel, rotated_block_kernel, ooo_kernel, marginal_xy_kernel,
                 marginal_z_kernel)
    for factory in factories + (pi_star,):
        assert factory(pmf_322) is factory(pmf_322)
    for factory in factories:
        kernel = factory(pmf_322)
        assert not kernel.core.flags.writeable
        assert not kernel.core_eigenvalues.flags.writeable
        assert not kernel.core_stationary.flags.writeable
    # kept per pmf object, not per value
    twin = JointPmf3(pmf_322.dims, pmf_322.p)
    assert block_kernel(twin) is not block_kernel(pmf_322)
