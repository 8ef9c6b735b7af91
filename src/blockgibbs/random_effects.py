"""Two sweep orders for the one-way random effects posterior.

Model: y_i = theta_i + e_i with theta_i iid N(mu, A), e_i iid N(0, V), V
known, a flat prior on mu, and A inverse gamma with density proportional to
w^(-a-1) exp(-b/w).

The block sweep draws A, then mu, then each theta_i; the out-of-order sweep
draws mu, then each theta_i, then A. Both are driven by keyed substreams
(one per draw), with the out-of-order A draw keyed one iteration ahead, so
the out-of-order trajectory is bit-for-bit the shifted view
(mu_n, theta_n, A_{n+1}) of the block trajectory. ``shifted_view`` builds
that re-indexing directly for comparison.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .streams import STEP_A, STEP_MU, KeyedStream, StreamKey, theta_step

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
    produced it."""

    A: float
    mu: float
    theta: np.ndarray
    variant: str = "block"

    def __post_init__(self) -> None:
        if not self.A > 0:
            raise ValueError("A must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


def ig_params(theta: np.ndarray, hyper: RemHyper) -> tuple[float, float]:
    """Inverse gamma parameters for the A draw:
    shape = a + (m - 1) / 2, rate = b + sum((theta_i - mean)^2) / 2."""
    theta = np.asarray(theta, dtype=float)
    m = theta.size
    if m < 2:
        raise ValueError("need at least 2 components")
    shape = hyper.a + (m - 1) / 2.0
    rate = hyper.b + 0.5 * float(((theta - theta.mean()) ** 2).sum())
    return shape, rate


def mu_params(theta: np.ndarray, A: float) -> tuple[float, float]:
    """Normal parameters for the mu draw: mean(theta) and A / m."""
    theta = np.asarray(theta, dtype=float)
    return float(theta.mean()), A / theta.size


def theta_params(mu: float, A: float, data: RemData, i: int) -> tuple[float, float]:
    """Normal parameters for the i-th theta draw (0-based index into y):
    mean (V mu + A y_i) / (A + V), variance A V / (A + V).

    The mean is a convex combination of mu and y_i with weight A / (A + V)
    on the observation.
    """
    if A < A_FLOOR:
        logger.warning("flooring A=%r at %r in theta draw", A, A_FLOOR)
        A = A_FLOOR
    V = data.V
    mean = (V * mu + A * data.y[i]) / (A + V)
    var = A * V / (A + V)
    return float(mean), float(var)


def sample_ig(shape: float, rate: float, key: StreamKey, stream) -> float:
    """Inverse gamma variate: the rate-scaled reciprocal of a unit-scale
    gamma(shape) variate from the substream at ``key``."""
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be positive")
    return rate / stream.gamma(key, shape)


def block_step(
    state: RemState, data: RemData, hyper: RemHyper, iteration: int, stream
) -> RemState:
    """One block sweep: A from theta, then mu given the new A, then each
    theta_i given the new (mu, A)."""
    shape, rate = ig_params(state.theta, hyper)
    a_new = sample_ig(shape, rate, StreamKey(iteration, STEP_A), stream)
    mean, var = mu_params(state.theta, a_new)
    mu_new = stream.normal(StreamKey(iteration, STEP_MU), mean, math.sqrt(var))
    theta_new = np.empty(data.m)
    for i in range(data.m):
        mean_i, var_i = theta_params(mu_new, a_new, data, i)
        theta_new[i] = stream.normal(
            StreamKey(iteration, theta_step(i + 1)), mean_i, math.sqrt(var_i)
        )
    return RemState(a_new, mu_new, theta_new, "block")


def ooo_step(
    state: RemState, data: RemData, hyper: RemHyper, iteration: int, stream
) -> RemState:
    """One out-of-order sweep: mu given the current A, then each theta_i
    given (new mu, current A), then A from the new theta.

    The A draw is keyed at iteration + 1: it is "the next iteration's" A in
    the shifted correspondence with the block sweep.
    """
    mean, var = mu_params(state.theta, state.A)
    mu_new = stream.normal(StreamKey(iteration, STEP_MU), mean, math.sqrt(var))
    theta_new = np.empty(data.m)
    for i in range(data.m):
        mean_i, var_i = theta_params(mu_new, state.A, data, i)
        theta_new[i] = stream.normal(
            StreamKey(iteration, theta_step(i + 1)), mean_i, math.sqrt(var_i)
        )
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
) -> list[RemState]:
    """Apply n sweeps and return all n + 1 states, the initial one included.

    Passing an explicit ``stream`` allows chunked continuation (with
    ``first_iteration`` advanced) and key auditing; results are identical to
    a monolithic run because draws are keyed by iteration, not by position
    in the stream.
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
    state = replace(init, variant=variant)
    trajectory = [state]
    for k in range(n):
        state = step(state, data, hyper, first_iteration + k, stream)
        trajectory.append(state)
    return trajectory


def shifted_view(trajectory: Sequence[RemState]) -> list[RemState]:
    """Re-index a block trajectory as (mu_n, theta_n, A_{n+1}).

    The result has one fewer element and is exactly what the out-of-order
    sweep simulates: its element k equals the out-of-order state T_k when
    the out-of-order run starts from element 0 and shares the seed.
    """
    if len(trajectory) < 2:
        raise ValueError("trajectory must have at least 2 states")
    return [
        RemState(trajectory[k + 1].A, s.mu, s.theta, "ooo")
        for k, s in enumerate(trajectory[:-1])
    ]


def estimate(
    trajectory: Sequence[RemState],
    g: Callable[[RemState], float],
    burn_in: int,
) -> tuple[float, float]:
    """Ergodic average of g over the post-burn-in states, with a batch-means
    standard error using floor(sqrt(n)) batches."""
    values = np.asarray([g(s) for s in trajectory[burn_in:]], dtype=float)
    n = values.size
    if n < 100:
        raise ValueError(f"need at least 100 post-burn-in states, have {n}")
    b = math.isqrt(n)
    a = n // b
    used = values[: a * b]
    batch_means = used.reshape(a, b).mean(axis=1)
    return float(used.mean()), float(batch_means.std(ddof=1) / math.sqrt(a))


def trajectory_to_csv(trajectory: Sequence[RemState], path) -> None:
    """Stream states to CSV with columns iter, A, mu, theta_1..theta_m."""
    m = trajectory[0].theta.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "A", "mu"] + [theta_step(i + 1) for i in range(m)])
        for k, s in enumerate(trajectory):
            writer.writerow(
                [k, format(s.A, ".17g"), format(s.mu, ".17g")]
                + [format(t, ".17g") for t in s.theta]
            )


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
