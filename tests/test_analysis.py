"""Tests for stationary solves, TV curves, spectra, and the checkers.

Power iteration and explicit matrix powers serve as the independent oracles
for the linear-solve and iterated-product paths respectively.
"""

import json

import numpy as np
import pytest

from blockgibbs import (
    Dims,
    JointPmf3,
    Kernel,
    StateCodec,
    analyze,
    block_kernel,
    check_marginal_agreement,
    check_pistar_invariance,
    check_prop1,
    check_rate_equality,
    flatten_to_codec,
    marginal_xy_kernel,
    marginal_z_kernel,
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
    return Kernel(codec, np.array([[1 - p, p], [p, 1 - p]]))


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------
def test_stationary_of_rank_one_kernel_is_its_row(product_222):
    k = block_kernel(product_222)
    np.testing.assert_allclose(
        stationary(k), flatten_to_codec(product_222, k.codec), atol=1e-13
    )


def test_stationary_matches_power_iteration(pmf_322):
    k = block_kernel(pmf_322)
    assert np.abs(stationary(k) - stationary_by_power_iteration(k.matrix)).sum() < 1e-10


def test_stationary_of_ooo_matches_pi_star_by_power_iteration(pmf_322):
    k = ooo_kernel(pmf_322)
    v = stationary(k)
    assert np.abs(v - stationary_by_power_iteration(k.matrix)).sum() < 1e-10
    assert np.abs(v - flatten_to_codec(pi_star(pmf_322), k.codec)).sum() < 1e-10


def test_stationary_rejects_reducible_kernel():
    k = Kernel(StateCodec(("Z",), (2,)), np.eye(2))
    with pytest.raises(ValueError, match="multiplicity"):
        stationary(k)


# ---------------------------------------------------------------------------
# tv_curve
# ---------------------------------------------------------------------------
def test_tv_curve_from_stationary_is_zero(pmf_322):
    k = block_kernel(pmf_322)
    v = stationary(k)
    assert tv_curve(k, v, v, 10).max() < 1e-13


def test_tv_curve_rank_one_hits_target_after_one_step(product_222):
    k = block_kernel(product_222)
    target = flatten_to_codec(product_222, k.codec)
    curve = tv_curve(k, np.eye(k.codec.size)[0], target, 5)
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
    bank = np.vstack([np.eye(k.codec.size)[: k.codec.size // 2], target, k.rows])
    curves = tv_curve(k, bank, target, 8)
    assert curves.shape == (9, bank.shape[0])
    for i, row in enumerate(bank):
        alone = tv_curve(k, row, target, 8)
        assert alone.shape == (9,) and alone[0] == curves[0, i]
        np.testing.assert_allclose(curves[:, i], alone, rtol=0, atol=1e-14)
    for nmax in (0, -1):
        with pytest.raises(ValueError, match="nmax"):
            tv_curve(k, bank, target, nmax)


@pytest.mark.parametrize("index", [1, 2, 3, 7])
def test_tv_curves_are_nonincreasing(corpus, index):
    pmf = corpus[index]
    for factory, target_pmf in ((block_kernel, pmf), (ooo_kernel, pi_star(pmf))):
        k = factory(pmf)
        curve = tv_curve(k, np.eye(k.codec.size)[0], flatten_to_codec(target_pmf, k.codec), 60)
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
        start = int(np.argmax(tv_curve(k, states[0], target, 1)))  # any fixed start works
        curve = tv_curve(k, states[start], target, 400)
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
        curve = tv_curve(k, np.eye(k.codec.size)[0], target, 400)
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
    p5 = np.linalg.matrix_power(k.matrix, 5)
    want = max(tv(row, target) for row in p5)
    assert report.chain1[4, 0] == pytest.approx(want, abs=1e-12)

    # worst-case z-marginal distance at n = 4 (the n = 5 middle term)
    kz = marginal_z_kernel(pmf)
    tz = flatten_to_codec(pmf, kz.codec)
    q4 = np.linalg.matrix_power(kz.matrix, 4)
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


def test_analyze_never_builds_a_dense_kernel():
    # the dense s x s view is the only O(s^2) object; the exact path runs
    # on the distinct rows and the core alone
    pmf = random_pmf(Dims(3, 2, 4), seed=2024, floor=0.005)  # not kept elsewhere
    analyze(pmf, nmax=10)
    for factory in (block_kernel, rotated_block_kernel, ooo_kernel, marginal_xy_kernel,
                    marginal_z_kernel):
        assert "matrix" not in factory(pmf).__dict__, factory.__name__


def test_analyze_derives_each_kernel_once(monkeypatch, pmf_322):
    # every check reads the same five kernels and pi_star off the pmf: one
    # construction and one core eigensolve per kernel, one pi_star
    counts = {"eigvals": 0, "kernels": 0, "pmfs": 0}

    def counting(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(Kernel, "__post_init__", counting("kernels", Kernel.__post_init__))
    monkeypatch.setattr(JointPmf3, "__post_init__", counting("pmfs", JointPmf3.__post_init__))
    analyze(pmf_322, nmax=10)
    assert counts == {"eigvals": 5, "kernels": 5, "pmfs": 1}

    factories = (block_kernel, rotated_block_kernel, ooo_kernel, marginal_xy_kernel,
                 marginal_z_kernel)
    for factory in factories + (pi_star,):
        assert factory(pmf_322) is factory(pmf_322)
    for factory in factories:
        kernel = factory(pmf_322)
        assert not kernel.core.flags.writeable
        assert not kernel.core_eigenvalues.flags.writeable
    # kept per pmf object, not per value
    twin = JointPmf3(pmf_322.dims, pmf_322.p)
    assert block_kernel(twin) is not block_kernel(pmf_322)
