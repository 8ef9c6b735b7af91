"""Two sweep orders for the one-way random effects posterior.

Model: y_i = theta_i + e_i with theta_i iid N(mu, A), e_i iid N(0, V), V
known, a flat prior on mu, and A inverse gamma with density proportional to
w^(-a-1) exp(-b/w).

The block sweep draws A, then mu, then theta; the out-of-order sweep draws
mu, then theta, then A. Given (mu, A) the theta_i are independent, so theta
is one vector draw and a sweep makes three keyed draws (see ``streams``).
The out-of-order A draw is keyed one iteration ahead, so the out-of-order
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


@dataclass(frozen=True, eq=False)
class RemState:
    """One sampler state (A, mu, theta) tagged with the sweep order that
    produced it. A must be finite and positive, mu and theta finite."""

    A: float
    mu: float
    theta: np.ndarray
    variant: str = "block"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        # name the bad fields in the order this variant draws them
        bad = [] if math.isfinite(self.mu) else [f"mu={float(self.mu)!r}"]
        # a finite sum proves every entry finite; the full test finds the bad one
        if not math.isfinite(np.add.reduce(theta)) and not np.isfinite(theta).all():
            i = int(np.argmin(np.isfinite(theta)))
            bad.append(f"theta[{i}]={float(theta[i])!r}")
        if not (math.isfinite(self.A) and self.A > 0):
            bad.insert(0 if self.variant == "block" else len(bad), f"A={float(self.A)!r}")
        if bad:
            raise ValueError(
                f"invalid state {', '.join(bad)}: A must be finite and positive, "
                "mu and theta finite"
            )


class Trajectory(NamedTuple):
    """A chain as read-only arrays A[n + 1], mu[n + 1] and theta[n + 1, m]."""

    A: np.ndarray
    mu: np.ndarray
    theta: np.ndarray


def ig_params(theta: np.ndarray, hyper: RemHyper) -> tuple[float, float]:
    """Inverse gamma parameters for the A draw:
    shape = a + (m - 1) / 2, rate = b + sum((theta_i - mean)^2) / 2."""
    m = theta.size
    if m < 2:
        raise ValueError("need at least 2 components")
    d = theta - np.add.reduce(theta) / m
    return hyper.a + (m - 1) / 2.0, hyper.b + 0.5 * float(np.add.reduce(d * d))


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


def sample_ig(shape: float, rate: float, key: StreamKey, stream) -> float:
    """Inverse gamma variate: the rate-scaled reciprocal of a unit-scale
    gamma(shape) variate from the substream at ``key``."""
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be positive")
    return rate / stream.gamma(key, shape)


def _draw_theta(mu: float, A: float, data: RemData, iteration: int, stream) -> np.ndarray:
    mean, var = theta_params(mu, A, data)
    return stream.normal(StreamKey(iteration, STEP_THETA), mean, math.sqrt(var), size=data.m)


def block_step(
    state: RemState, data: RemData, hyper: RemHyper, iteration: int, stream
) -> RemState:
    """One block sweep: A from theta, then mu given the new A, then theta
    given the new (mu, A)."""
    shape, rate = ig_params(state.theta, hyper)
    a_new = sample_ig(shape, rate, StreamKey(iteration, STEP_A), stream)
    mean, var = mu_params(state.theta, a_new)
    mu_new = stream.normal(StreamKey(iteration, STEP_MU), mean, math.sqrt(var))
    return RemState(a_new, mu_new, _draw_theta(mu_new, a_new, data, iteration, stream), "block")


def ooo_step(
    state: RemState, data: RemData, hyper: RemHyper, iteration: int, stream
) -> RemState:
    """One out-of-order sweep: mu given the current A, then theta given
    (new mu, current A), then A from the new theta.

    The A draw is keyed at iteration + 1: it is "the next iteration's" A in
    the shifted correspondence with the block sweep.
    """
    mean, var = mu_params(state.theta, state.A)
    mu_new = stream.normal(StreamKey(iteration, STEP_MU), mean, math.sqrt(var))
    theta_new = _draw_theta(mu_new, state.A, data, iteration, stream)
    shape, rate = ig_params(theta_new, hyper)
    a_new = sample_ig(shape, rate, StreamKey(iteration + 1, STEP_A), stream)
    return RemState(a_new, mu_new, theta_new, "ooo")


def default_init(data: RemData) -> RemState:
    """Start inside the support with no overdispersion: mu at the data mean,
    theta at the data, A at the sample variance (floored at 1e-6)."""
    a0 = max(float(np.var(data.y, ddof=1)), 1e-6)
    return RemState(a0, float(data.y.mean()), data.y.copy())


_STEPS: dict[str, Callable] = {"block": block_step, "ooo": ooo_step}


def run_chain(
    variant: str,
    init: RemState,
    data: RemData,
    hyper: RemHyper,
    n: int,
    seed: int,
    *,
    stream: KeyedStream | None = None,
    first_iteration: int = 1,
) -> Trajectory:
    """Apply n sweeps and return all n + 1 states, the initial one included.

    Passing an explicit ``stream`` allows chunked continuation (with
    ``first_iteration`` advanced) and key auditing; results are identical to
    a monolithic run because draws are keyed by iteration, not by position
    in the stream. A sweep that produces an invalid state raises, naming
    its iteration and the bad field.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in _STEPS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if data.m != init.theta.size:
        raise ValueError("init theta length does not match data")
    step = _STEPS[variant]
    if stream is None:
        stream = KeyedStream(seed)
    A, mu, theta = np.empty(n + 1), np.empty(n + 1), np.empty((n + 1, data.m))
    state = init
    A[0], mu[0], theta[0] = state.A, state.mu, state.theta
    for k in range(1, n + 1):
        iteration = first_iteration + k - 1
        try:
            state = step(state, data, hyper, iteration, stream)
        except ValueError as exc:
            raise ValueError(f"iteration {iteration}: {exc}") from exc
        A[k], mu[k], theta[k] = state.A, state.mu, state.theta
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
    """Simulation configuration as carried by the model JSON document:
    {"y": [...], "V": ..., "a": ..., "b": ..., "n": ..., "burn_in": ...,
    "seed": ..., "variant": "block"|"ooo"}. Run settings may be omitted in
    the document and supplied by the caller instead."""

    data: RemData
    hyper: RemHyper
    n: int | None = None
    burn_in: int | None = None
    seed: int | None = None
    variant: str | None = None

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelConfig":
        missing = [k for k in ("y", "V", "a", "b") if k not in doc]
        if missing:
            raise ValueError(f"model config missing required keys: {missing}")
        variant = doc.get("variant")
        if variant is not None and variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        return cls(
            data=RemData(np.asarray(doc["y"], dtype=float), float(doc["V"])),
            hyper=RemHyper(float(doc["a"]), float(doc["b"])),
            n=None if doc.get("n") is None else int(doc["n"]),
            burn_in=None if doc.get("burn_in") is None else int(doc["burn_in"]),
            seed=None if doc.get("seed") is None else int(doc["seed"]),
            variant=variant,
        )

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
