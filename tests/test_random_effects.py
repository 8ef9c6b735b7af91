"""Tests for the random effects samplers.

The two sweep orders are checked three ways: parameter formulas against
hand-worked values, composition against a deterministic median stream, and
the trajectory-level shifted re-indexing bit for bit.
"""

import csv
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammainccinv

from blockgibbs import (
    KeyedStream,
    MedianStream,
    RemData,
    RemHyper,
    RemState,
    StreamKey,
    block_step,
    default_init,
    estimate,
    ig_params,
    mu_params,
    ooo_step,
    run_chain,
    sample_ig,
    shifted_view,
    theta_params,
)
from blockgibbs.random_effects import ModelConfig, trajectory_to_csv


@pytest.fixture()
def data():
    return RemData(np.array([1.2, -0.3, 0.7, 2.1, -1.0, 0.4]), V=1.0)


@pytest.fixture()
def hyper():
    return RemHyper(2.0, 2.0)


def states_equal(s: RemState, t: RemState) -> bool:
    return s.A == t.A and s.mu == t.mu and (s.theta == t.theta).all()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def test_domain_type_validation():
    with pytest.raises(ValueError):
        RemData(np.array([1.0]), V=1.0)  # m < 2
    with pytest.raises(ValueError):
        RemData(np.array([1.0, 2.0]), V=0.0)
    with pytest.raises(ValueError):
        RemHyper(0.0, 1.0)
    with pytest.raises(ValueError):
        RemState(A=0.0, mu=0.0, theta=np.zeros(2))
    with pytest.raises(ValueError):
        RemState(A=1.0, mu=0.0, theta=np.zeros(2), variant="sideways")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_name_their_field(bad):
    with pytest.raises(ValueError, match=r"y must be finite; y\[1\]"):
        RemData(np.array([1.0, bad, 2.0]), V=1.0)
    with pytest.raises(ValueError, match="V must be finite"):
        RemData(np.array([1.0, 2.0]), V=bad)
    with pytest.raises(ValueError, match="a must be finite"):
        RemHyper(bad, 1.0)
    with pytest.raises(ValueError, match="b must be finite"):
        RemHyper(1.0, bad)


# ---------------------------------------------------------------------------
# step parameter formulas (hand-worked values)
# ---------------------------------------------------------------------------
def test_ig_params_worked_examples():
    # constant theta: zero sum of squares, so (a + (m-1)/2, b)
    assert ig_params(np.ones(4), RemHyper(1.0, 1.0)) == (2.5, 1.0)
    # theta = (0, 2): mean 1, sum of squares 2, so rate = 3 + 1 = 4
    assert ig_params(np.array([0.0, 2.0]), RemHyper(2.0, 3.0)) == (2.5, 4.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.integers(0, 1000))
def test_ig_params_translation_invariant(shift, seed):
    theta = np.random.default_rng(seed).normal(size=5)
    base = ig_params(theta, RemHyper(1.5, 2.5))
    shifted = ig_params(theta + shift, RemHyper(1.5, 2.5))
    assert shifted[0] == base[0]
    assert shifted[1] == pytest.approx(base[1], rel=1e-9, abs=1e-9)


def test_mu_params_worked_example():
    mean, var = mu_params(np.ones(4), A=4.0)
    assert (mean, var) == (1.0, 1.0)
    assert mu_params(np.array([3.0, 1.0, 2.0]), A=1e-12)[1] == pytest.approx(0.0, abs=1e-12)
    # permutation invariance
    assert mu_params(np.array([3.0, 1.0, 2.0]), A=2.0) == mu_params(
        np.array([1.0, 2.0, 3.0]), A=2.0
    )


def test_theta_params_worked_example(data):
    # A = V, mu = 0: mean y_i / 2, variance V / 2
    for i in range(data.m):
        mean, var = theta_params(0.0, A=1.0, data=data, i=i)
        assert mean == pytest.approx(data.y[i] / 2)
        assert var == pytest.approx(0.5)


def test_theta_params_limits(data):
    big = theta_params(0.0, A=1e14, data=data, i=0)
    assert big[0] == pytest.approx(data.y[0], rel=1e-10)
    small = theta_params(5.0, A=1e-14, data=data, i=0)
    assert small[0] == pytest.approx(5.0, rel=1e-10)
    assert small[1] == pytest.approx(0.0, abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-10, 10),
    st.floats(1e-6, 1e6),
    st.floats(1e-6, 1e6),
    st.integers(0, 5),
)
def test_theta_params_convexity_bounds(mu, A, V, i):
    data = RemData(np.array([1.2, -0.3, 0.7, 2.1, -1.0, 0.4]), V=V)
    mean, var = theta_params(mu, A, data, i)
    lo, hi = sorted((mu, float(data.y[i])))
    assert lo - 1e-9 <= mean <= hi + 1e-9
    assert 0.0 < var < min(A, V) + 1e-12


# ---------------------------------------------------------------------------
# inverse gamma sampling
# ---------------------------------------------------------------------------
def test_sample_ig_deterministic_in_key():
    a = sample_ig(3.0, 2.0, StreamKey(1, "A"), KeyedStream(5))
    b = sample_ig(3.0, 2.0, StreamKey(1, "A"), KeyedStream(5))
    assert a == b and a > 0
    with pytest.raises(ValueError):
        sample_ig(-1.0, 2.0, StreamKey(1, "A"), KeyedStream(5))
    with pytest.raises(ValueError):
        sample_ig(3.0, 0.0, StreamKey(1, "A"), KeyedStream(5))


def test_sample_ig_monte_carlo_mean():
    # mean of IG(3, 2) is 2 / (3 - 1) = 1; SE of 1e6 draws ~ 1e-3
    stream = KeyedStream(123, audit=False)
    draws = 1_000_000
    vals = stream.gamma(StreamKey(0, "A"), 3.0, size=draws)
    mean = float((2.0 / vals).mean())
    assert abs(mean - 1.0) < 0.01


def test_sample_ig_distribution_ks():
    # CDF oracle: P(W <= w) = P(G >= rate / w) for G gamma(shape),
    # i.e. the regularized upper incomplete gamma at rate / w
    shape, rate = 2.5, 1.5
    stream = KeyedStream(7, audit=False)
    sample = rate / stream.gamma(StreamKey(0, "A"), shape, size=100_000)
    result = scipy.stats.kstest(sample, lambda w: gammaincc(shape, rate / w))
    assert result.pvalue > 0.001


def test_median_of_sample_ig_matches_closed_form():
    med = sample_ig(3.0, 2.0, StreamKey(1, "A"), MedianStream())
    assert med == pytest.approx(2.0 / gammainccinv(3.0, 0.5))


# ---------------------------------------------------------------------------
# sweep composition
# ---------------------------------------------------------------------------
def test_block_step_median_composition(data, hyper):
    init = default_init(data)
    out = block_step(init, data, hyper, 1, MedianStream())

    shape, rate = ig_params(init.theta, hyper)
    a_hand = rate / gammainccinv(shape, 0.5)
    mu_hand = mu_params(init.theta, a_hand)[0]
    theta_hand = [theta_params(mu_hand, a_hand, data, i)[0] for i in range(data.m)]
    assert out.A == a_hand
    assert out.mu == mu_hand
    np.testing.assert_array_equal(out.theta, theta_hand)
    assert out.variant == "block"


def test_ooo_step_median_composition(data, hyper):
    init = default_init(data)
    out = ooo_step(init, data, hyper, 1, MedianStream())

    mu_hand = mu_params(init.theta, init.A)[0]
    theta_hand = np.array(
        [theta_params(mu_hand, init.A, data, i)[0] for i in range(data.m)]
    )
    shape, rate = ig_params(theta_hand, hyper)
    assert out.mu == mu_hand
    np.testing.assert_array_equal(out.theta, theta_hand)
    assert out.A == rate / gammainccinv(shape, 0.5)
    assert out.variant == "ooo"


def test_ooo_key_audit(data, hyper):
    stream = KeyedStream(3)
    run_chain("ooo", default_init(data), data, hyper, n=4, seed=3, stream=stream)
    want = (
        {StreamKey(i, "mu") for i in range(1, 5)}
        | {StreamKey(i, f"theta_{j}") for i in range(1, 5) for j in range(1, 7)}
        | {StreamKey(i, "A") for i in range(2, 6)}
    )
    assert stream.consumed == want


def test_block_key_audit(data, hyper):
    stream = KeyedStream(3)
    run_chain("block", default_init(data), data, hyper, n=4, seed=3, stream=stream)
    want = {
        StreamKey(i, step)
        for i in range(1, 5)
        for step in ["A", "mu"] + [f"theta_{j}" for j in range(1, 7)]
    }
    assert stream.consumed == want


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------
def test_run_chain_deterministic_and_positive(data, hyper):
    init = default_init(data)
    a = run_chain("block", init, data, hyper, n=50, seed=9)
    b = run_chain("block", init, data, hyper, n=50, seed=9)
    assert len(a) == 51
    assert all(states_equal(s, t) for s, t in zip(a, b))
    assert all(s.A > 0 for s in a)


def test_run_chain_chunked_equals_monolithic(data, hyper):
    init = default_init(data)
    whole = run_chain("ooo", init, data, hyper, n=40, seed=13)
    first = run_chain("ooo", init, data, hyper, n=25, seed=13)
    second = run_chain(
        "ooo", first[-1], data, hyper, n=15, seed=13, first_iteration=26
    )
    stitched = first + second[1:]
    assert len(stitched) == len(whole)
    assert all(states_equal(s, t) for s, t in zip(whole, stitched))


def test_shifted_view_reindexes(data, hyper):
    traj = run_chain("block", default_init(data), data, hyper, n=5, seed=1)
    view = shifted_view(traj)
    assert len(view) == 5
    for k, s in enumerate(view):
        assert s.A == traj[k + 1].A
        assert s.mu == traj[k].mu
        assert (s.theta == traj[k].theta).all()
        assert s.variant == "ooo"
    assert len(shifted_view(traj[:2])) == 1
    with pytest.raises(ValueError):
        shifted_view(traj[:1])


@pytest.mark.parametrize("seed", [0, 42, 777])
def test_shifted_view_is_the_ooo_run_bit_for_bit(data, hyper, seed):
    init = default_init(data)
    base = run_chain("block", init, data, hyper, n=201, seed=seed)
    view = shifted_view(base)
    ooo = run_chain("ooo", view[0], data, hyper, n=200, seed=seed)
    assert len(view) == len(ooo) == 201
    assert all(states_equal(s, t) for s, t in zip(view, ooo))


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------
def test_estimate_constant_function(data, hyper):
    traj = run_chain("block", default_init(data), data, hyper, n=200, seed=2)
    mean, se = estimate(traj, lambda s: 3.25, burn_in=0)
    assert mean == 3.25
    assert se == 0.0
    with pytest.raises(ValueError):
        estimate(traj, lambda s: s.A, burn_in=150)


def test_posterior_mean_of_mu_is_data_mean(data, hyper):
    # flat prior on mu: E[mu | y, A] is the data mean for every A, so the
    # long-run average must match it within Monte Carlo error
    traj = run_chain("block", default_init(data), data, hyper, n=20_000, seed=31)
    mean, se = estimate(traj, lambda s: s.mu, burn_in=500)
    assert abs(mean - data.y.mean()) < 3 * se


def test_single_variable_marginals_agree_between_sweeps(data, hyper):
    init = default_init(data)
    n = 20_000
    block = run_chain("block", init, data, hyper, n=n, seed=17)
    ooo = run_chain("ooo", init, data, hyper, n=n, seed=18)
    for g in (lambda s: s.A, lambda s: s.mu):
        mb, seb = estimate(block, g, burn_in=1000)
        mo, seo = estimate(ooo, g, burn_in=1000)
        assert abs(mb - mo) < 3 * math.hypot(seb, seo)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
def test_trajectory_csv(tmp_path, data, hyper):
    traj = run_chain("block", default_init(data), data, hyper, n=3, seed=0)
    path = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "A", "mu"] + [f"theta_{i}" for i in range(1, 7)]
    assert [row[0] for row in rows[1:]] == ["0", "1", "2", "3"]
    assert float(rows[2][1]) == traj[1].A


def test_model_config_round_trip(data, hyper):
    cfg = ModelConfig(data, hyper, n=100, burn_in=10, seed=5, variant="ooo")
    back = ModelConfig.from_json_dict(cfg.to_json_dict())
    assert (back.data.y == data.y).all()
    assert back.hyper == hyper
    assert (back.n, back.burn_in, back.seed, back.variant) == (100, 10, 5, "ooo")
    with pytest.raises(ValueError, match="missing"):
        ModelConfig.from_json_dict({"y": [1, 2], "V": 1.0})
    with pytest.raises(ValueError, match="variant"):
        ModelConfig.from_json_dict(
            {"y": [1, 2], "V": 1.0, "a": 1.0, "b": 1.0, "variant": "zigzag"}
        )
