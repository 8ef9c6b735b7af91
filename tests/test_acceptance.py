"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its measured numbers (run with ``pytest -s`` to see the
lines as they happen).

All tolerances are pinned here; nothing is calibrated at runtime. The
exact-analysis criteria run over the fixed 50-member seeded corpus; the
sampler criteria use a fixed m = 6 synthetic data vector, generated once and
frozen below.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaincc

from blockgibbs import (
    KeyedStream,
    RemData,
    RemHyper,
    StreamKey,
    check_marginal_agreement,
    check_prop1,
    check_rate_equality,
    default_init,
    estimate,
    flatten_to_codec,
    gibbs_kernel,
    ig_params,
    mu_params,
    ooo_kernel,
    pi_star,
    run_chain,
    shifted_view,
    stationary,
    theta_params,
    tv,
)
from conftest import kernel_matrix

#: Fixed synthetic observations for the sampler criteria (m = 6).
SYNTHETIC_Y = np.array([-1.0088, -1.3956, 1.3887, 3.8386, 0.4923, -2.7071])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_wrong_invariant(corpus):
    """pi_star is exactly invariant for the out-of-order kernel, and the
    solved stationary vector matches it, on all 50 corpus members."""
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_gap = 0.0
    for pmf in corpus:
        k = ooo_kernel(pmf)
        star_vec = flatten_to_codec(pi_star(pmf), k.codec)
        worst_residual = max(
            worst_residual, float(np.abs(star_vec @ kernel_matrix(k) - star_vec).sum())
        )
        worst_gap = max(worst_gap, float(np.abs(stationary(k)[0] - star_vec).sum()))
    elapsed = time.perf_counter() - t0
    ok = worst_residual <= 1e-12 and worst_gap <= 1e-10 and elapsed < 10.0
    report(
        "criterion 1 (wrong invariant)",
        ok,
        f"max residual {worst_residual:.2e} (<=1e-12), "
        f"max stationary gap {worst_gap:.2e} (<=1e-10), {elapsed:.2f}s (<10s)",
    )
    assert worst_residual <= 1e-12
    assert worst_gap <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_target_not_invariant(anti_pmf):
    """On the 2x2x1 counterexample the true joint is not invariant and the
    (X, Y) marginal moves by exactly 0.3 in TV."""
    k = ooo_kernel(anti_pmf)
    pi_vec = flatten_to_codec(anti_pmf, k.codec)
    residual = float(np.abs(pi_vec @ kernel_matrix(k) - pi_vec).sum())
    xy_gap = tv(
        pi_star(anti_pmf).p.sum(axis=2), anti_pmf.p.sum(axis=2)
    )
    ok = residual > 0.1 and abs(xy_gap - 0.3) <= 1e-12
    report(
        "criterion 2 (non-invariance of the target)",
        ok,
        f"residual {residual:.3f} (>0.1), xy tv {xy_gap:.15f} (=0.3 +- 1e-12)",
    )
    assert residual > 0.1
    assert abs(xy_gap - 0.3) <= 1e-12


def test_criterion_3_inequality_chains(corpus):
    """Both total-variation inequality chains hold from every start state
    (chain 1 for n = 3..50, chain 2 for n = 1..50) with slack <= 1e-12."""
    t0 = time.perf_counter()
    worst = -np.inf
    all_ok = True
    for pmf in corpus:
        rep = check_prop1(pmf, nmax=50, tol=1e-12)
        worst = max(worst, rep.max_violation)
        all_ok = all_ok and rep.verdict
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 60.0
    report(
        "criterion 3 (inequality chains)",
        ok,
        f"all verdicts {all_ok}, worst violation {worst:.2e} (<=1e-12), "
        f"{elapsed:.2f}s (<60s)",
    )
    assert all_ok
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_4_rate_equality(corpus):
    """Nonzero spectra of the four valid chains coincide and the
    out-of-order slem equals their common slem, within 1e-8."""
    worst_multiset = 0.0
    worst_slem = 0.0
    all_ok = True
    for pmf in corpus:
        rep = check_rate_equality(pmf, tol=1e-8)
        worst_multiset = max(worst_multiset, rep.multiset_gap)
        worst_slem = max(worst_slem, rep.slem_gap)
        all_ok = all_ok and rep.verdict
    ok = all_ok and worst_multiset <= 1e-8 and worst_slem <= 1e-8
    report(
        "criterion 4 (rate equality)",
        ok,
        f"max multiset gap {worst_multiset:.2e}, max slem gap {worst_slem:.2e} (<=1e-8)",
    )
    assert all_ok
    assert worst_multiset <= 1e-8
    assert worst_slem <= 1e-8


def test_criterion_5_marginal_preservation(corpus):
    """pi_star keeps the X, Y, Z, XZ, YZ marginals (<= 1e-14) and moves the
    XY marginal on at least 45 of the 50 corpus members."""
    worst_preserved = 0.0
    positive_xy = 0
    for pmf in corpus:
        table = check_marginal_agreement(pmf)
        worst_preserved = max(
            worst_preserved, max(table[k] for k in ("X", "Y", "Z", "XZ", "YZ"))
        )
        if table["XY"] > 1e-12:
            positive_xy += 1
    ok = worst_preserved <= 1e-14 and positive_xy >= 45
    report(
        "criterion 5 (marginal preservation)",
        ok,
        f"worst preserved-marginal tv {worst_preserved:.2e} (<=1e-14), "
        f"xy moved on {positive_xy}/50 members (>=45)",
    )
    assert worst_preserved <= 1e-14
    assert positive_xy >= 45


def test_criterion_6_shifted_chain_identity():
    """The shifted view of a 10001-sweep block run equals a 10000-sweep
    out-of-order run bit for bit in every coordinate."""
    data = RemData(SYNTHETIC_Y, V=1.0)
    hyper = RemHyper(2.0, 2.0)
    init = default_init(data)
    t0 = time.perf_counter()
    base = run_chain("block", init, data, hyper, n=10_001, seed=42)
    view = shifted_view(base)
    start = view.A[0], view.mu[0], view.theta[0]
    ooo = run_chain("ooo", start, data, hyper, n=10_000, seed=42)
    identical = ooo.A.size == 10_001 and all(
        np.array_equal(s, t) for s, t in zip(view, ooo)
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 5.0
    report(
        "criterion 6 (shifted-chain identity)",
        ok,
        f"bitwise identical over {ooo.A.size} states: {identical}, {elapsed:.2f}s (<5s)",
    )
    assert identical
    assert elapsed < 5.0


def test_criterion_7_sampler_correctness():
    """Step formulas on worked examples, inverse gamma mean and KS checks,
    and block-vs-out-of-order agreement of the A and mu marginals at
    n = 10^5 within 3 combined batch-means standard errors."""
    # worked parameter examples, exact
    formulas_ok = (
        ig_params(np.ones(4), RemHyper(1.0, 1.0)) == (2.5, 1.0)
        and ig_params(np.array([0.0, 2.0]), RemHyper(2.0, 3.0)) == (2.5, 4.0)
        and mu_params(np.ones(4), 4.0) == (1.0, 1.0)
    )
    data = RemData(SYNTHETIC_Y, V=1.0)
    means0, var0 = theta_params(0.0, A=1.0, data=data)
    formulas_ok = formulas_ok and means0[0] == SYNTHETIC_Y[0] / 2 and var0 == 0.5

    # inverse gamma: mean of IG(3, 2) is 1, and the sample passes a KS test
    # against the upper-incomplete-gamma CDF
    stream = KeyedStream(123)
    mc = 2.0 / stream.gamma(StreamKey(0, "A"), 3.0, np.empty(1_000_000))
    mean_err = abs(float(mc.mean()) - 1.0)
    sample = 1.5 / KeyedStream(7).gamma(StreamKey(0, "A"), 2.5, np.empty(100_000))
    ks_p = scipy.stats.kstest(sample, lambda w: gammaincc(2.5, 1.5 / w)).pvalue

    # single-variable marginal agreement at n = 1e5
    hyper = RemHyper(2.0, 2.0)
    init = default_init(data)
    n = 100_000
    block = run_chain("block", init, data, hyper, n=n, seed=101)
    ooo = run_chain("ooo", init, data, hyper, n=n, seed=202)
    sigmas = {}
    for name in ("A", "mu"):
        mb, seb = estimate(getattr(block, name), burn_in=1000)
        mo, seo = estimate(getattr(ooo, name), burn_in=1000)
        sigmas[name] = abs(mb - mo) / math.hypot(seb, seo)

    ok = (
        formulas_ok
        and mean_err < 0.01
        and ks_p > 0.001
        and all(v < 3.0 for v in sigmas.values())
    )
    report(
        "criterion 7 (sampler correctness)",
        ok,
        f"formulas exact: {formulas_ok}, ig mean err {mean_err:.4f} (<0.01), "
        f"ks p {ks_p:.3f} (>0.001), marginal gaps "
        + ", ".join(f"{k}={v:.2f}se" for k, v in sigmas.items())
        + " (<3se)",
    )
    assert formulas_ok
    assert mean_err < 0.01
    assert ks_p > 0.001
    assert all(v < 3.0 for v in sigmas.values())


def test_criterion_8_gibbs_ordering_validity(corpus):
    """Every one of the six single-site update orders leaves the target
    invariant (stationary within 1e-10 in L1) across the corpus."""
    import itertools

    worst = 0.0
    for pmf in corpus:
        for ordering in itertools.permutations("XYZ"):
            k = gibbs_kernel(pmf, ordering)
            gap = float(
                np.abs(stationary(k)[0] - flatten_to_codec(pmf, k.codec)).sum()
            )
            worst = max(worst, gap)
    ok = worst <= 1e-10
    report(
        "criterion 8 (update-order validity)",
        ok,
        f"max stationary gap over 300 kernels {worst:.2e} (<=1e-10)",
    )
    assert worst <= 1e-10
