"""Tests for the random effects samplers.

The two sweep orders are checked four ways: parameter formulas against
hand-worked values, composition against hand evaluation at the noise
medians (zero normals and the gamma median), the sufficient-statistic
chain against the vector step formulas it replaced, and the
trajectory-level shifted re-indexing bit for bit.
"""

import csv
import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammainccinv

from blockgibbs import (
    KeyedStream,
    RemData,
    RemHyper,
    StreamKey,
    Trajectory,
    block_step,
    default_init,
    estimate,
    ig_params,
    mu_params,
    ooo_step,
    run_chain,
    shifted_view,
    theta_params,
)
from blockgibbs.random_effects import A_FLOOR, VARIANTS, trajectory_to_csv
from blockgibbs.streams import BLOCK


#: sha256 of trajectory.csv for a 20-sweep block run (seed 2024) on the
#: fixture data, under block keys; ``reference_chain`` gives the same file.
#: See test_trajectory_csv_golden_digest.
GOLDEN_SHA256 = "48f586fdb7cd601761f2a50af22b8f22abe4a057d5d36bfb5c5760a38052f932"
#: The same for an out-of-order run, which reads its A noise one iteration ahead.
GOLDEN_OOO_SHA256 = "c6a3c0c41486e85272b2097e17e98e78f18b6f3d846cd3e7428b00b66d3d1e53"


@pytest.fixture()
def data():
    return RemData(np.array([1.2, -0.3, 0.7, 2.1, -1.0, 0.4]), V=1.0)


@pytest.fixture()
def hyper():
    return RemHyper(2.0, 2.0)


def trajectories_equal(s: Trajectory, t: Trajectory) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(s, t))


class RecordingStream(KeyedStream):
    """Audited keyed stream that also lists every (block, label) it builds a
    generator for, in order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.binds = []

    def _generator(self, block, key):
        self.binds.append((block, key.step))
        return super()._generator(block, key)


class PoisonedStream(KeyedStream):
    """Keyed stream whose normal noise at one iteration and label is NaN (a
    scalar draw, or one coordinate of a vector draw)."""

    def __init__(self, iteration, step, coordinate=None):
        super().__init__(0)
        self.target = (iteration, step)
        self.coordinate = coordinate

    def normal(self, key, out):
        super().normal(key, out)
        iteration, step = self.target
        if key.step == step and key.iteration <= iteration < key.iteration + len(out):
            row = iteration - key.iteration
            out[row if self.coordinate is None else (row, self.coordinate)] = math.nan
        return out


class MedianStream(KeyedStream):
    """Keyed stream whose noise is the median of each draw: zero normals and
    the gamma median."""

    def normal(self, key, out):
        out[...] = 0.0
        return out

    def gamma(self, key, shape, out):
        out[...] = gammainccinv(shape, 0.5)
        return out


def key_layout_noise(seed, shape, m):
    """noise(iteration, code) from the key layout alone: a fresh Philox
    generator per (block, label) makes the block's bulk draw, and iteration
    i reads row i % BLOCK of block i // BLOCK."""
    draws = {
        0: lambda gen: gen.standard_gamma(shape, BLOCK),
        1: lambda gen: gen.standard_normal(BLOCK),
        2: lambda gen: gen.standard_normal((BLOCK, m)),
    }
    blocks = {}

    def noise(iteration, code):
        block, row = divmod(iteration, BLOCK)
        if (block, code) not in blocks:
            key = np.array([seed, block << 16 | code], dtype=np.uint64)
            blocks[block, code] = draws[code](np.random.Generator(np.random.Philox(key=key)))
        return blocks[block, code][row]

    return noise


def reference_chain(variant, init, data, hyper, n, seed):
    """The chain rebuilt from the key layout with its own recursion, one
    sweep at a time: the scalar state (A, mu, theta mean, sum of squares)
    steps on three statistics of the theta noise z, and each theta row is
    the theta draw's mean + sd * z."""
    m, V, b = data.m, data.V, hyper.b
    noise = key_layout_noise(seed, hyper.a + (m - 1) / 2, m)
    y_bar = float(np.add.reduce(data.y)) / m
    dy = data.y - y_bar
    syy = float(np.add.reduce(dy * dy))
    A, mu, theta = init
    theta_bar = float(np.add.reduce(theta)) / m
    ss = float(np.add.reduce((theta - theta_bar) ** 2))
    states = [(A, mu, theta, theta_bar, ss)]
    ahead = 1 if variant == "ooo" else 0
    for i in range(1, n + 1):
        g, z_mu, z = noise(i + ahead, 0), noise(i, 1), noise(i, 2)
        z_bar = float(np.add.reduce(z)) / m
        dz = z - z_bar
        if variant == "block":
            A = (b + 0.5 * ss) / g
        mu = theta_bar + math.sqrt(A / m) * z_mu
        c, s = A / (A + V), math.sqrt(A * V / (A + V))
        theta = (V * mu + A * data.y) / (A + V) + s * z
        theta_bar = (V * mu + A * y_bar) / (A + V) + s * z_bar
        ss = c * c * syy + 2 * c * s * float(np.add.reduce(dz * dy)) + s * s * float(
            np.add.reduce(dz * dz))
        if variant == "ooo":
            A = (b + 0.5 * ss) / g
        states.append((A, mu, theta, theta_bar, ss))
    return Trajectory(*(np.array(column) for column in zip(*states)))


def vector_block_step(A, mu, theta, g, z_mu, z_theta, data, hyper):
    """The block sweep on the vector state (A, mu, theta), as the sampler
    computed it before it ran on sufficient statistics."""
    m = theta.size
    mean = float(np.add.reduce(theta)) / m
    d = theta - mean
    A = (hyper.b + 0.5 * float(np.add.reduce(d * d))) / g
    mu = mean + math.sqrt(A / m) * z_mu
    mean, var = theta_params(mu, A, data)
    return A, mu, mean + math.sqrt(var) * z_theta


def vector_ooo_step(A, mu, theta, g, z_mu, z_theta, data, hyper):
    """The out-of-order sweep on the vector state, as ``vector_block_step``."""
    mean, var = mu_params(theta, A)
    mu = mean + math.sqrt(var) * z_mu
    mean, var = theta_params(mu, A, data)
    theta = mean + math.sqrt(var) * z_theta
    return ig_params(theta, hyper)[1] / g, mu, theta


def vector_chain(variant, init, data, hyper, n, seed):
    """The chain by the vector step formulas on the key layout's noise, with
    each theta row's mean and sum of squared deviations appended."""
    noise = key_layout_noise(seed, ig_params(init[2], hyper)[0], data.m)
    step = {"block": vector_block_step, "ooo": vector_ooo_step}[variant]
    ahead = 1 if variant == "ooo" else 0
    states = [init]
    for i in range(1, n + 1):
        states.append(step(*states[-1], noise(i + ahead, 0), noise(i, 1), noise(i, 2), data, hyper))
    A, mu, theta = (np.array(column) for column in zip(*states))
    d = theta - theta.mean(axis=1, keepdims=True)
    return Trajectory(A, mu, theta, theta.mean(axis=1), (d * d).sum(axis=1))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def test_domain_type_validation(data, hyper):
    with pytest.raises(ValueError):
        RemData(np.array([1.0]), V=1.0)  # m < 2
    with pytest.raises(ValueError):
        RemData(np.array([1.0, 2.0]), V=0.0)
    with pytest.raises(ValueError):
        RemHyper(0.0, 1.0)
    with pytest.raises(ValueError, match=r"iteration 0: invalid state A=0\.0:"):
        run_chain("block", (0.0, 0.0, np.zeros(data.m)), data, hyper, n=1, seed=0)
    with pytest.raises(ValueError, match="init theta length"):
        run_chain("block", (1.0, 0.0, np.zeros(data.m - 1)), data, hyper, n=1, seed=0)
    with pytest.raises(ValueError, match="variant"):
        run_chain("sideways", default_init(data), data, hyper, n=1, seed=0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"A": math.nan}, r"A=nan"),
        ({"A": -1.0}, r"A=-1\.0"),
        ({"mu": math.inf}, r"mu=inf"),
        ({"theta": np.array([0.0, -math.inf, math.nan])}, r"theta\[1\]=-inf"),
    ],
)
def test_invalid_state_names_its_field(hyper, fields, message):
    # an initial state is checked before any sweep runs
    state = dict(dict(A=1.0, mu=0.0, theta=np.zeros(3)), **fields)
    data = RemData(np.array([1.0, 2.0, 3.0]), V=1.0)
    init = (state["A"], state["mu"], state["theta"])
    with pytest.raises(ValueError, match=f"invalid state {message}"):
        run_chain("ooo", init, data, hyper, n=1, seed=0)


@pytest.mark.parametrize(
    "variant, poison, message",
    [
        # block draws A, mu, theta: the NaN mu spoils theta after it
        ("block", (3, "mu", None), r"iteration 3: invalid state mu=nan, theta\[0\]=nan"),
        ("block", (2, "theta", 4), r"iteration 2: invalid state theta\[4\]=nan:"),
        # ooo draws mu, theta, A: the NaN theta spoils the A drawn after it
        ("ooo", (4, "theta", 2), r"iteration 4: invalid state theta\[2\]=nan, A=nan"),
    ],
)
def test_invalid_state_raises_at_the_sweep_that_made_it(data, hyper, variant, poison, message):
    with pytest.raises(ValueError, match=message):
        run_chain(variant, default_init(data), data, hyper, n=6, seed=0,
                  stream=PoisonedStream(*poison))


def test_a_floor_warning_fires_once_per_sweep(data, hyper, caplog):
    # A below A_FLOOR (reachable only from an initial state) floors the theta
    # draw's A; the warning is per sweep, not per coordinate, and building
    # the theta rows after the sweeps adds none
    with caplog.at_level(logging.WARNING, logger="blockgibbs.random_effects"):
        chain = run_chain("ooo", (1e-310, 0.0, data.y), data, hyper, n=1, seed=0,
                          stream=MedianStream(0))
    assert [r.getMessage().startswith("flooring A") for r in caplog.records] == [True]
    # the stored theta row is the floored draw's
    np.testing.assert_array_equal(chain.theta[1], theta_params(chain.mu[1], A_FLOOR, data)[0])


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
    # A = V, mu = 0: means y_i / 2, variance V / 2
    mean, var = theta_params(0.0, A=1.0, data=data)
    assert mean.shape == (data.m,)
    np.testing.assert_allclose(mean, data.y / 2)
    assert var == pytest.approx(0.5)


def test_theta_params_limits(data):
    big = theta_params(0.0, A=1e14, data=data)
    np.testing.assert_allclose(big[0], data.y, rtol=1e-10)
    small = theta_params(5.0, A=1e-14, data=data)
    np.testing.assert_allclose(small[0], 5.0, rtol=1e-10)
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
    mean, var = theta_params(mu, A, data)
    lo, hi = sorted((mu, float(data.y[i])))
    assert lo - 1e-9 <= mean[i] <= hi + 1e-9
    assert 0.0 < var < min(A, V) + 1e-12


# ---------------------------------------------------------------------------
# inverse gamma sampling
# ---------------------------------------------------------------------------
def test_sample_ig_monte_carlo_mean():
    # mean of IG(3, 2) is 2 / (3 - 1) = 1; SE of 1e6 draws ~ 1e-3
    stream = KeyedStream(123)
    draws = 1_000_000
    vals = stream.gamma(StreamKey(0, "A"), 3.0, np.empty(draws))
    mean = float((2.0 / vals).mean())
    assert abs(mean - 1.0) < 0.01


def test_sample_ig_distribution_ks():
    # CDF oracle: P(W <= w) = P(G >= rate / w) for G gamma(shape),
    # i.e. the regularized upper incomplete gamma at rate / w
    shape, rate = 2.5, 1.5
    stream = KeyedStream(7)
    sample = rate / stream.gamma(StreamKey(0, "A"), shape, np.empty(100_000))
    result = scipy.stats.kstest(sample, lambda w: gammaincc(shape, rate / w))
    assert result.pvalue > 0.001


# ---------------------------------------------------------------------------
# sweep composition
# ---------------------------------------------------------------------------
#: The steps' theta mean and sum of squares against the same of a theta
#: vector: the mean rounds differently from a sum over coordinates, and SS
#: is the expansion c^2 Syy, which rounds differently from a sum of squared
#: deviations, each by a few eps relative.
STATS_RTOL = 1e-14


def test_block_step_median_composition(data, hyper):
    A0, mu0, theta0 = default_init(data)
    shape, rate = ig_params(theta0, hyper)
    median = gammainccinv(shape, 0.5)
    chain = run_chain("block", (A0, mu0, theta0), data, hyper, n=1, seed=0,
                      stream=MedianStream(0))
    A, mu, theta, theta_bar, ss = (column[1] for column in chain)

    a_hand = rate / median
    mu_hand = mu_params(theta0, a_hand)[0]
    V = data.V
    theta_hand = [(V * mu_hand + a_hand * y) / (a_hand + V) for y in data.y]
    assert A == a_hand
    assert mu == mu_hand
    np.testing.assert_array_equal(theta, theta_hand)
    # the step itself, from the chain's initial state and the median noise
    start = (chain.A[0], chain.mu[0], chain.theta_bar[0], chain.ss[0])
    assert block_step(*start, median, 0.0, 0.0, 0.0, 0.0, data, hyper) == (A, mu, theta_bar, ss)
    assert theta_bar == pytest.approx(np.mean(theta_hand), rel=STATS_RTOL)
    assert ss == pytest.approx(2 * (ig_params(theta, hyper)[1] - hyper.b), rel=STATS_RTOL)


def test_ooo_step_median_composition(data, hyper):
    A0, mu0, theta0 = default_init(data)
    median = gammainccinv(ig_params(theta0, hyper)[0], 0.5)
    chain = run_chain("ooo", (A0, mu0, theta0), data, hyper, n=1, seed=0,
                      stream=MedianStream(0))
    A, mu, theta, theta_bar, ss = (column[1] for column in chain)

    mu_hand = mu_params(theta0, A0)[0]
    V = data.V
    theta_hand = np.array([(V * mu_hand + A0 * y) / (A0 + V) for y in data.y])
    shape, rate = ig_params(theta_hand, hyper)
    assert mu == mu_hand
    np.testing.assert_array_equal(theta, theta_hand)
    start = (chain.A[0], chain.mu[0], chain.theta_bar[0], chain.ss[0])
    assert ooo_step(*start, median, 0.0, 0.0, 0.0, 0.0, data, hyper) == (A, mu, theta_bar, ss)
    # A reads the recursion's SS, not theta_hand's sum of squares
    assert A == (hyper.b + 0.5 * ss) / median
    assert A == pytest.approx(rate / gammainccinv(shape, 0.5), rel=STATS_RTOL)
    assert theta_bar == pytest.approx(np.mean(theta_hand), rel=STATS_RTOL)


def test_ooo_key_audit(data, hyper):
    # one generator per label and block: the out-of-order A noise is read one
    # iteration ahead, so it reaches block 1 a sweep before mu and theta do;
    # the noise is drawn before the sweeps run, A first as in the block sweep
    stream = RecordingStream(3)
    run_chain("ooo", default_init(data), data, hyper, n=BLOCK - 1, seed=3, stream=stream)
    assert stream.binds == [(0, "A"), (1, "A"), (0, "mu"), (0, "theta")]
    assert stream.consumed == {"A": BLOCK, "mu": BLOCK - 1, "theta": BLOCK - 1}


def test_block_key_audit(data, hyper):
    stream = RecordingStream(3)
    run_chain("block", default_init(data), data, hyper, n=4, seed=3, stream=stream)
    assert stream.binds == [(0, "A"), (0, "mu"), (0, "theta")]
    assert stream.consumed == {"A": 4, "mu": 4, "theta": 4}
    stream = RecordingStream(3)
    run_chain("block", default_init(data), data, hyper, n=BLOCK + 5, seed=3, stream=stream)
    assert stream.binds == [(b, step) for step in ("A", "mu", "theta") for b in (0, 1)]
    assert stream.consumed == {"A": BLOCK + 5, "mu": BLOCK + 5, "theta": BLOCK + 5}


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------
def test_run_chain_deterministic_and_positive(data, hyper):
    init = default_init(data)
    a = run_chain("block", init, data, hyper, n=50, seed=9)
    b = run_chain("block", init, data, hyper, n=50, seed=9)
    assert a.A.shape == a.mu.shape == (51,) and a.theta.shape == (51, data.m)
    assert trajectories_equal(a, b)
    assert (a.A > 0).all()
    assert not any(column.flags.writeable for column in a)
    with pytest.raises(ValueError):
        a.theta[1, 0] = 0.0


def test_run_chain_chunked_equals_monolithic(data, hyper):
    init = default_init(data)
    whole = run_chain("ooo", init, data, hyper, n=40, seed=13)
    # one audited stream across both chunks: the second starts above every
    # label's mark (the first chunk drew A up to iteration 26)
    stream = KeyedStream(13)
    first = run_chain("ooo", init, data, hyper, n=25, seed=13, stream=stream)
    last = tuple(column[-1] for column in first)  # with the recursion's state
    second = run_chain(
        "ooo", last, data, hyper, n=15, seed=13, stream=stream, first_iteration=26
    )
    stitched = Trajectory(*(np.concatenate((a, b[1:])) for a, b in zip(first, second)))
    assert stitched.A.size == whole.A.size
    assert trajectories_equal(whole, stitched)
    # running any sweep again on that stream reuses its keys
    with pytest.raises(ValueError, match="already consumed"):
        run_chain("ooo", last, data, hyper, n=1, seed=13, stream=stream, first_iteration=40)


@pytest.mark.parametrize("variant", ["block", "ooo"])
def test_run_chain_matches_an_independent_block_key_reimplementation(data, hyper, variant):
    # n crosses the first block boundary for every label
    n = BLOCK + 30
    chain = run_chain(variant, default_init(data), data, hyper, n=n, seed=77)
    assert trajectories_equal(chain, reference_chain(variant, default_init(data), data, hyper, n, 77))


#: run_chain against the vector step formulas, per column, relative to the
#: column's largest magnitude. Each sweep rounds SS's three-term expansion
#: c^2 Syy + 2 c s Syz + s^2 Szz with an absolute error of a few
#: eps * (c^2 Syy + s^2 Szz); that is large against SS only when SS nearly
#: cancels (m = 2, theta_1 ~ theta_2), where A = (b + SS / 2) / g hides it
#: behind b. The chain contracts, so the per-sweep errors do not add up
#: over sweeps: at m = 2, 3, 8 and 64, four seeds, n = 20,000 and both
#: sweeps the largest movement was 3.4 eps; 16 eps leaves room for that.
VECTOR_RTOL = 16 * np.finfo(float).eps


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m", [2, 3, 8, 64])
def test_run_chain_matches_the_vector_step_formulas(hyper, variant, m):
    data = RemData(1.5 * np.random.default_rng(100 + m).normal(size=m), V=1.0)
    n = 2 * BLOCK + 100
    chain = run_chain(variant, default_init(data), data, hyper, n=n, seed=m)
    vector = vector_chain(variant, default_init(data), data, hyper, n, m)
    for name, got, want in zip(Trajectory._fields, chain, vector):
        scale = np.abs(want).max(axis=0)
        assert (np.abs(got - want).max(axis=0) <= VECTOR_RTOL * scale).all(), name


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m, below_floor", [(2, False), (8, True), (64, False)])
def test_chained_steps_are_run_chain_bit_for_bit(hyper, variant, m, below_floor):
    # block_step and ooo_step are one-row calls of run_chain's chunk loop:
    # chained on the key layout's noise they give every row of the chain,
    # across chunks of 4096 // m rows and blocks of BLOCK sweeps alike
    data = RemData(1.5 * np.random.default_rng(100 + m).normal(size=m), V=1.0)
    # theta's mean is exactly 0 below the floor, so mu shows which A it read
    init = (1e-310, 0.0, np.tile([-1.0, 1.0], m // 2)) if below_floor else default_init(data)
    n = 2 * BLOCK + 100
    chain = run_chain(variant, init, data, hyper, n=n, seed=m)
    noise = key_layout_noise(m, hyper.a + (m - 1) / 2, m)
    step, ahead = (block_step, 0) if variant == "block" else (ooo_step, 1)
    states = [tuple(column[0].item() for column in (chain.A, chain.mu, chain.theta_bar, chain.ss))]
    dy = data.y - data.y_bar
    for i in range(1, n + 1):
        z = noise(i, 2)
        z_bar = float(np.add.reduce(z)) / m
        dz = z - z_bar
        states.append(step(*states[-1], noise(i + ahead, 0), noise(i, 1), z_bar,
                           float(np.add.reduce(dz * dy)), float(np.add.reduce(dz * dz)), data, hyper))
    rows = np.column_stack([chain.A, chain.mu, chain.theta_bar, chain.ss])
    assert np.array(states).tobytes() == rows.tobytes()
    if below_floor and variant == "ooo":  # mu reads A as it is, theta the floored A
        V, z_mu, z_bar = data.V, noise(1, 1), float(np.add.reduce(noise(1, 2))) / m
        assert chain.mu[1] == math.sqrt(1e-310 / m) * z_mu != math.sqrt(A_FLOOR / m) * z_mu
        s = math.sqrt(A_FLOOR * V / (A_FLOOR + V))
        assert chain.theta_bar[1] == (V * chain.mu[1] + A_FLOOR * data.y_bar) / (A_FLOOR + V) + s * z_bar


@pytest.mark.parametrize("variant", ["block", "ooo"])
@pytest.mark.parametrize(
    "split",
    [
        pytest.param(BLOCK - 1, id="mu-theta-at-boundary"),  # the second chunk starts at BLOCK
        pytest.param(BLOCK - 2, id="ooo-A-at-boundary"),  # ooo reads A at BLOCK next
        pytest.param(BLOCK + 7, id="inside-block-1"),
    ],
)
def test_run_chain_chunks_split_at_and_across_block_boundaries(data, hyper, variant, split):
    init = default_init(data)
    n = BLOCK + 40
    whole = run_chain(variant, init, data, hyper, n=n, seed=21)
    stream = KeyedStream(21)
    first = run_chain(variant, init, data, hyper, n=split, seed=21, stream=stream)
    last = tuple(column[-1] for column in first)  # with the recursion's state
    second = run_chain(variant, last, data, hyper, n=n - split, seed=21, stream=stream,
                       first_iteration=split + 1)
    stitched = Trajectory(*(np.concatenate((a, b[1:])) for a, b in zip(first, second)))
    assert trajectories_equal(whole, stitched)
    # the audit still refuses a rerun of the second chunk and a lower start
    for start in (split + 1, split - 5):
        with pytest.raises(ValueError, match="already consumed or out of order"):
            run_chain(variant, last, data, hyper, n=3, seed=21, stream=stream,
                      first_iteration=start)


def test_shifted_view_reindexes(data, hyper):
    traj = run_chain("block", default_init(data), data, hyper, n=5, seed=1)
    view = shifted_view(traj)
    assert view.A.size == 5 and view.theta.shape == (5, data.m)
    np.testing.assert_array_equal(view.A, traj.A[1:])
    np.testing.assert_array_equal(view.mu, traj.mu[:-1])
    np.testing.assert_array_equal(view.theta, traj.theta[:-1])
    # a slice of the trajectory's arrays, not a copy
    assert all(np.shares_memory(v, t) for v, t in zip(view, traj))
    assert shifted_view(Trajectory(*(c[:2] for c in traj))).A.size == 1
    with pytest.raises(ValueError):
        shifted_view(Trajectory(*(c[:1] for c in traj)))


@pytest.mark.parametrize("seed", [0, 42, 777])
def test_shifted_view_is_the_ooo_run_bit_for_bit(data, hyper, seed):
    init = default_init(data)
    base = run_chain("block", init, data, hyper, n=201, seed=seed)
    view = shifted_view(base)
    start = view.A[0], view.mu[0], view.theta[0]
    ooo = run_chain("ooo", start, data, hyper, n=200, seed=seed)
    assert view.A.size == ooo.A.size == 201
    assert trajectories_equal(view, ooo)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------
def test_estimate_constant_function(data, hyper):
    traj = run_chain("block", default_init(data), data, hyper, n=200, seed=2)
    mean, se = estimate(np.full(traj.A.size, 3.25), burn_in=0)
    assert mean == 3.25
    assert se == 0.0
    with pytest.raises(ValueError):
        estimate(traj.A, burn_in=150)


def test_estimate_rejects_a_negative_burn_in():
    # a negative slice start would average only the last values
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        estimate(np.arange(1000.0), -200)


def test_posterior_mean_of_mu_is_data_mean(data, hyper):
    # flat prior on mu: E[mu | y, A] is the data mean for every A, so the
    # long-run average must match it within Monte Carlo error
    traj = run_chain("block", default_init(data), data, hyper, n=20_000, seed=31)
    mean, se = estimate(traj.mu, burn_in=500)
    assert abs(mean - data.y.mean()) < 3 * se


def test_single_variable_marginals_agree_between_sweeps(data, hyper):
    init = default_init(data)
    n = 20_000
    block = run_chain("block", init, data, hyper, n=n, seed=17)
    ooo = run_chain("ooo", init, data, hyper, n=n, seed=18)
    for column in ("A", "mu"):
        mb, seb = estimate(getattr(block, column), burn_in=1000)
        mo, seo = estimate(getattr(ooo, column), burn_in=1000)
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
    assert float(rows[2][1]) == traj.A[1]


def test_trajectory_csv_matches_the_csv_module(tmp_path, data, hyper):
    # reference: csv.writer's default dialect, one row per state, .17g floats;
    # rows beyond the writer's 1024-row blocks are numbered on
    traj = run_chain("block", default_init(data), data, hyper, n=1100, seed=8)
    path = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, path)
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "A", "mu"] + [f"theta_{i}" for i in range(1, 7)])
        for k in range(traj.A.size):
            writer.writerow(
                [k, format(traj.A[k], ".17g"), format(traj.mu[k], ".17g")]
                + [format(t, ".17g") for t in traj.theta[k]]
            )
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("plain_rows", [0, 40])
def test_trajectory_csv_matches_the_csv_module_off_the_fixed_notation(tmp_path, plain_rows):
    # cells printf writes as 0, in exponent form or as subnormals, beside
    # fixed-notation ones: alone they are most of the pass, which printf then
    # writes whole; among 40 plain rows only they go to printf
    plain = np.random.default_rng(3).normal(size=(plain_rows, 8))
    theta = np.vstack([[[0.0, -0.0, 1e-300, -1e-5, 1e20, 5e-324],
                        [1.5, -2.25e-4, 1e17, 99999999999999984.0, 1e-4, -7.0]],
                       plain[:, 2:]])
    A = np.concatenate([[2.0, 1e-310], plain[:, 0]])
    mu = np.concatenate([[-0.0, 3.0e16], plain[:, 1]])
    traj = Trajectory(A, mu, theta, theta.mean(axis=1), np.zeros(A.size))
    path = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, path)
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "A", "mu"] + [f"theta_{i}" for i in range(1, 7)])
        for k in range(traj.A.size):
            writer.writerow(
                [k, format(traj.A[k], ".17g"), format(traj.mu[k], ".17g")]
                + [format(t, ".17g") for t in traj.theta[k]]
            )
    assert path.read_bytes() == ref.read_bytes()


def test_trajectory_csv_memory_does_not_grow_with_n(tmp_path):
    # the writer formats a fixed number of cells per pass (4096 // (m + 3)
    # rows), so its peak is the same at n = 2,000 and 8,000 sweeps; holding
    # every row's bytes at once would add megabytes at m = 64
    data = RemData(np.random.default_rng(5).normal(size=64), V=1.0)
    hyper = RemHyper(2.0, 2.0)
    path = tmp_path / "trajectory.csv"

    def peak(n):
        traj = run_chain("block", default_init(data), data, hyper, n=n, seed=9)
        trajectory_to_csv(traj, path)  # first-call allocations
        tracemalloc.start()
        try:
            trajectory_to_csv(traj, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2000), peak(8000)
    assert abs(long - short) < 4096, (short, long)


@pytest.mark.parametrize(
    "variant, digest",
    [pytest.param("block", GOLDEN_SHA256, id="block"),
     pytest.param("ooo", GOLDEN_OOO_SHA256, id="ooo")],
)
def test_trajectory_csv_golden_digest(tmp_path, data, hyper, variant, digest):
    # pins the key layout (A, mu and theta noise keyed per block of BLOCK
    # sweeps) and the CSV format: any change to either changes every
    # trajectory for a given seed
    traj = run_chain(variant, default_init(data), data, hyper, n=20, seed=2024)
    path = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
