"""Tests for the random effects samplers.

The two sweep orders are checked three ways: parameter formulas against
hand-worked values, composition against hand evaluation at the noise
medians (zero normals and the gamma median), and the trajectory-level
shifted re-indexing bit for bit.
"""

import csv
import hashlib
import logging
import math

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
from blockgibbs.random_effects import trajectory_to_csv
from blockgibbs.streams import BLOCK


#: sha256 of trajectory.csv for a 20-sweep block run (seed 2024) on the
#: fixture data, under block keys; ``reference_chain`` gives the same file.
#: See test_trajectory_csv_golden_digest.
GOLDEN_SHA256 = "e7ed06996b211eb7bbe346dec226fa312022d3b3493c5d9bf9dd4e2bc28220e4"
#: The same for an out-of-order run, which reads its A noise one iteration ahead.
GOLDEN_OOO_SHA256 = "90489ea87533444f5466a74cb2ab20644781f3fbee9c93b35d60344b80a82525"


@pytest.fixture()
def data():
    return RemData(np.array([1.2, -0.3, 0.7, 2.1, -1.0, 0.4]), V=1.0)


@pytest.fixture()
def hyper():
    return RemHyper(2.0, 2.0)


def trajectories_equal(s: Trajectory, t: Trajectory) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(s, t))


class RecordingStream(KeyedStream):
    """Audited keyed stream that also lists every (block, label) it binds, in
    order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.binds = []

    def _bind(self, block, key):
        self.binds.append((block, key.step))
        super()._bind(block, key)


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


def reference_chain(variant, init, data, hyper, n, seed):
    """The chain rebuilt from the key layout alone: a fresh Philox generator
    per (block, label) makes the block's bulk draw, iteration i reads row
    i % BLOCK of block i // BLOCK, and the steps run one sweep at a time."""
    shape = ig_params(init[2], hyper)[0]
    draws = {
        0: lambda gen: gen.standard_gamma(shape, BLOCK),
        1: lambda gen: gen.standard_normal(BLOCK),
        2: lambda gen: gen.standard_normal((BLOCK, data.m)),
    }
    blocks = {}

    def noise(iteration, code):
        block, row = divmod(iteration, BLOCK)
        if (block, code) not in blocks:
            key = [seed, block << 16 | code]
            blocks[block, code] = draws[code](np.random.Generator(np.random.Philox(key=key)))
        return blocks[block, code][row]

    step = {"block": block_step, "ooo": ooo_step}[variant]
    ahead = 1 if variant == "ooo" else 0
    states = [init]
    for i in range(1, n + 1):
        states.append(step(*states[-1], noise(i + ahead, 0), noise(i, 1), noise(i, 2), data, hyper))
    return Trajectory(*(np.array(column) for column in zip(*states)))


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
    # draw's A; the warning is per sweep, not per coordinate
    g = gammainccinv(ig_params(data.y, hyper)[0], 0.5)
    with caplog.at_level(logging.WARNING, logger="blockgibbs.random_effects"):
        ooo_step(1e-310, 0.0, data.y, g, 0.0, np.zeros(data.m), data, hyper)
    assert [r.getMessage().startswith("flooring A") for r in caplog.records] == [True]


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
    stream = KeyedStream(123, audit=False)
    draws = 1_000_000
    vals = stream.gamma(StreamKey(0, "A"), 3.0, np.empty(draws))
    mean = float((2.0 / vals).mean())
    assert abs(mean - 1.0) < 0.01


def test_sample_ig_distribution_ks():
    # CDF oracle: P(W <= w) = P(G >= rate / w) for G gamma(shape),
    # i.e. the regularized upper incomplete gamma at rate / w
    shape, rate = 2.5, 1.5
    stream = KeyedStream(7, audit=False)
    sample = rate / stream.gamma(StreamKey(0, "A"), shape, np.empty(100_000))
    result = scipy.stats.kstest(sample, lambda w: gammaincc(shape, rate / w))
    assert result.pvalue > 0.001


# ---------------------------------------------------------------------------
# sweep composition
# ---------------------------------------------------------------------------
def test_block_step_median_composition(data, hyper):
    A0, mu0, theta0 = default_init(data)
    shape, rate = ig_params(theta0, hyper)
    median = gammainccinv(shape, 0.5)
    A, mu, theta = block_step(A0, mu0, theta0, median, 0.0, np.zeros(data.m), data, hyper)

    a_hand = rate / median
    mu_hand = mu_params(theta0, a_hand)[0]
    V = data.V
    theta_hand = [(V * mu_hand + a_hand * y) / (a_hand + V) for y in data.y]
    assert A == a_hand
    assert mu == mu_hand
    np.testing.assert_array_equal(theta, theta_hand)


def test_ooo_step_median_composition(data, hyper):
    A0, mu0, theta0 = default_init(data)
    median = gammainccinv(ig_params(theta0, hyper)[0], 0.5)
    A, mu, theta = ooo_step(A0, mu0, theta0, median, 0.0, np.zeros(data.m), data, hyper)

    mu_hand = mu_params(theta0, A0)[0]
    V = data.V
    theta_hand = np.array([(V * mu_hand + A0 * y) / (A0 + V) for y in data.y])
    shape, rate = ig_params(theta_hand, hyper)
    assert mu == mu_hand
    np.testing.assert_array_equal(theta, theta_hand)
    assert A == rate / gammainccinv(shape, 0.5)


def test_ooo_key_audit(data, hyper):
    # one bind per label and block: the out-of-order A noise is read one
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
    last = first.A[-1], first.mu[-1], first.theta[-1]
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
    last = first.A[-1], first.mu[-1], first.theta[-1]
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
