"""Two sweep orders for the one-way random effects posterior.

Model: y_i = theta_i + e_i with theta_i iid N(mu, A), e_i iid N(0, V), V
known, a flat prior on mu, and A inverse gamma with density proportional to
w^(-a-1) exp(-b/w).

The block sweep draws A, then mu, then theta; the out-of-order sweep draws
mu, then theta, then A. Given (mu, A) the theta_i are independent, so theta
is one vector draw and a sweep reads three labels of keyed noise (see
``streams``). No draw depends on the state: A is the rate over a unit gamma
whose shape a + (m - 1) / 2 is fixed for the chain, and mu and theta are
mean + sd * z. So ``run_chain`` draws a chain's noise first, one bulk draw
per label and block of ``streams.BLOCK`` sweeps, and ``block_step`` and
``ooo_step`` are pure functions of a state and one sweep's noise. The
out-of-order A draw is read one iteration ahead, so the out-of-order
trajectory is bit-for-bit the shifted view (mu_n, theta_n, A_{n+1}) of the
block trajectory, which ``shifted_view`` slices out of its arrays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .streams import STEP_A, STEP_MU, STEP_THETA, KeyedStream, StreamKey

logger = logging.getLogger(__name__)

#: Numerical guard: A this small would underflow the theta draw variance.
A_FLOOR = 1e-300

VARIANTS = ("block", "ooo")


@dataclass(frozen=True, eq=False)
class RemData:
    """Observations and the known error variance."""

    y: np.ndarray
    V: float

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise ValueError("y must be a 1-D vector with at least 2 observations")
        if not np.isfinite(y).all():
            raise ValueError(f"y must be finite; y[{int(np.argmin(np.isfinite(y)))}] is not")
        if not (math.isfinite(self.V) and self.V > 0):
            raise ValueError(f"V must be finite and positive, got {self.V!r}")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class RemHyper:
    """Inverse gamma prior parameters for the between-group variance."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


class Trajectory(NamedTuple):
    """A chain as read-only arrays A[n + 1], mu[n + 1] and theta[n + 1, m]."""

    A: np.ndarray
    mu: np.ndarray
    theta: np.ndarray


def _ig_rate(theta: np.ndarray, mean: float, hyper: RemHyper) -> float:
    d = theta - mean
    return hyper.b + 0.5 * float(np.add.reduce(d * d))


def ig_params(theta: np.ndarray, hyper: RemHyper) -> tuple[float, float]:
    """Inverse gamma parameters for the A draw:
    shape = a + (m - 1) / 2, rate = b + sum((theta_i - mean)^2) / 2."""
    m = theta.size
    if m < 2:
        raise ValueError("need at least 2 components")
    return hyper.a + (m - 1) / 2.0, _ig_rate(theta, float(np.add.reduce(theta)) / m, hyper)


def mu_params(theta: np.ndarray, A: float) -> tuple[float, float]:
    """Normal parameters for the mu draw: mean(theta) and A / m."""
    return float(np.add.reduce(theta)) / theta.size, A / theta.size


def theta_params(mu: float, A: float, data: RemData) -> tuple[np.ndarray, float]:
    """Normal parameters for the theta draw: one mean per coordinate,
    (V mu + A y_i) / (A + V), a convex combination of mu and y_i with weight
    A / (A + V) on the observation, and the common variance A V / (A + V).
    """
    if A < A_FLOOR:
        logger.warning("flooring A=%r at %r in theta draw", A, A_FLOOR)
        A = A_FLOOR
    V = data.V
    return (V * mu + A * data.y) / (A + V), A * V / (A + V)


def block_step(A, mu, theta, g, z_mu, z_theta, data: RemData, hyper: RemHyper):
    """One block sweep from the state (A, mu, theta), given the sweep's
    noise: a unit gamma ``g`` and standard normals ``z_mu`` and ``z_theta``.
    A from theta, then mu given the new A, then theta given the new (mu, A).
    Returns the new state."""
    m = theta.size
    mean = float(np.add.reduce(theta)) / m  # mu_params' mean, reduced once
    A = _ig_rate(theta, mean, hyper) / g
    mu = mean + math.sqrt(A / m) * z_mu
    mean, var = theta_params(mu, A, data)
    return A, mu, mean + math.sqrt(var) * z_theta


def ooo_step(A, mu, theta, g, z_mu, z_theta, data: RemData, hyper: RemHyper):
    """One out-of-order sweep from the state (A, mu, theta), given the same
    noise as ``block_step``: mu given the current A, then theta given
    (new mu, current A), then A from the new theta. Returns the new state."""
    mean, var = mu_params(theta, A)
    mu = mean + math.sqrt(var) * z_mu
    mean, var = theta_params(mu, A, data)
    theta = mean + math.sqrt(var) * z_theta
    return ig_params(theta, hyper)[1] / g, mu, theta


def default_init(data: RemData) -> tuple[float, float, np.ndarray]:
    """Start inside the support with no overdispersion: mu at the data mean,
    theta at the data, A at the sample variance (floored at 1e-6)."""
    a0 = max(float(np.var(data.y, ddof=1)), 1e-6)
    return a0, float(data.y.mean()), data.y.copy()


_STEPS: dict[str, Callable] = {"block": block_step, "ooo": ooo_step}


def _check_states(A, mu, theta, variant: str, first_iteration: int) -> None:
    """Raise at the first row of the state arrays (iteration
    ``first_iteration`` + row) that is not a valid state, naming its bad
    fields in the order ``variant`` draws them. A must be finite and
    positive, mu and theta finite."""
    valid = (A > 0) & (A < math.inf) & np.isfinite(mu) & np.isfinite(theta).all(axis=1)
    if valid.all():
        return
    k = int(np.argmin(valid))
    bad = [] if math.isfinite(mu[k]) else [f"mu={float(mu[k])!r}"]
    if not np.isfinite(theta[k]).all():
        i = int(np.argmin(np.isfinite(theta[k])))
        bad.append(f"theta[{i}]={float(theta[k, i])!r}")
    if not 0 < A[k] < math.inf:
        bad.insert(0 if variant == "block" else len(bad), f"A={float(A[k])!r}")
    raise ValueError(
        f"iteration {first_iteration + k}: invalid state {', '.join(bad)}: "
        "A must be finite and positive, mu and theta finite"
    )


def run_chain(
    variant: str,
    init: tuple[float, float, np.ndarray],
    data: RemData,
    hyper: RemHyper,
    n: int,
    seed: int,
    *,
    stream: KeyedStream | None = None,
    first_iteration: int = 1,
) -> Trajectory:
    """Apply n sweeps to the state ``init`` = (A, mu, theta) and return all
    n + 1 states, the initial one included.

    Every sweep's noise is drawn first, into the output arrays, one bulk
    draw per label and block of ``streams.BLOCK`` iterations: a unit
    gamma(a + (m - 1) / 2) under ``A`` (read at iteration + 1 by the
    out-of-order sweep), standard normals under ``mu`` and ``theta``. No
    draw depends on the state, so the sweeps then run as pure functions of
    it and overwrite each row with the state. Passing an explicit ``stream``
    allows chunked continuation (with ``first_iteration`` advanced, also to
    a point inside a block) and key auditing; results are identical to a
    monolithic run because each variate is addressed by its iteration, not
    by its position in the stream. An invalid initial state, or a sweep
    that produces one, raises, naming its iteration and the bad field.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in _STEPS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if np.shape(init[2]) != (data.m,):
        raise ValueError("init theta length does not match data")
    A, mu, theta = np.empty(n + 1), np.empty(n + 1), np.empty((n + 1, data.m))
    A[0], mu[0], theta[0] = init
    _check_states(A[:1], mu[:1], theta[:1], variant, first_iteration - 1)
    if stream is None:
        stream = KeyedStream(seed)
    shape = ig_params(theta[0], hyper)[0]  # the same for every sweep
    a_ahead = 1 if variant == "ooo" else 0
    stream.gamma(StreamKey(first_iteration + a_ahead, STEP_A), shape, A[1:])
    stream.normal(StreamKey(first_iteration, STEP_MU), mu[1:])
    stream.normal(StreamKey(first_iteration, STEP_THETA), theta[1:])
    step = _STEPS[variant]
    state = A[0], mu[0], theta[0]
    for k in range(1, n + 1):
        state = step(*state, A[k], mu[k], theta[k], data, hyper)
        A[k], mu[k], theta[k] = state
    _check_states(A, mu, theta, variant, first_iteration - 1)
    for column in (A, mu, theta):
        column.setflags(write=False)
    return Trajectory(A, mu, theta)


def shifted_view(trajectory: Trajectory) -> Trajectory:
    """Re-index a block trajectory as (mu_n, theta_n, A_{n+1}).

    The result has one fewer state and is exactly what the out-of-order
    sweep simulates: its state k equals the out-of-order state T_k when
    the out-of-order run starts from state 0 and shares the seed.
    """
    if trajectory.A.size < 2:
        raise ValueError("trajectory must have at least 2 states")
    return Trajectory(trajectory.A[1:], trajectory.mu[:-1], trajectory.theta[:-1])


def estimate(values: np.ndarray, burn_in: int) -> tuple[float, float]:
    """Ergodic average of per-state values (one per trajectory state) after
    burn-in, with a batch-means standard error using floor(sqrt(n))
    batches."""
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    values = np.asarray(values, dtype=float)[burn_in:]
    n = values.size
    if n < 100:
        raise ValueError(f"need at least 100 post-burn-in states, have {n}")
    b = math.isqrt(n)
    a = n // b
    used = values[: a * b]
    batch_means = used.reshape(a, b).mean(axis=1)
    return float(used.mean()), float(batch_means.std(ddof=1) / math.sqrt(a))


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Stream states to CSV with columns iter, A, mu, theta_1..theta_m:
    floats at 17 significant digits, CRLF line ends, formatted 1024 rows at
    a time so memory stays bounded."""
    m = trajectory.theta.shape[1]
    row = "%d" + ",%.17g" * (m + 2) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["iter", "A", "mu"] + [f"theta_{i}" for i in range(1, m + 1)]))
        fh.write("\r\n")
        for start in range(0, trajectory.A.size, 1024):
            values = np.column_stack([c[start : start + 1024] for c in trajectory]).tolist()
            fh.writelines(row % (start + k, *v) for k, v in enumerate(values))


@dataclass
class ModelConfig:
    """One chain's model and run settings, as carried by the model JSON
    document {"y": [...], "V": ..., "a": ..., "b": ..., "n": ...,
    "burn_in": ..., "seed": ..., "variant": "block"|"ooo"}; the command line
    reads and checks them."""

    data: RemData
    hyper: RemHyper
    n: int
    burn_in: int
    seed: int
    variant: str

    def to_json_dict(self) -> dict:
        return {
            "y": self.data.y.tolist(),
            "V": self.data.V,
            "a": self.hyper.a,
            "b": self.hyper.b,
            "n": self.n,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "variant": self.variant,
        }
