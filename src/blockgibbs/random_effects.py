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
per label and block of ``streams.BLOCK`` sweeps. The A and mu draws read
theta only through its mean and sum of squared deviations SS, which read
its noise through three statistics, so one loop (``_sweeps``) runs a chunk
of sweeps on the scalar state (A, mu, theta-bar, SS), and theta is built
after it. The out-of-order A draw is read one iteration ahead, so the
out-of-order trajectory is bit-for-bit the shifted view (mu_n, theta_n,
A_{n+1}) of the block trajectory, which ``shifted_view`` slices out of its
arrays.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
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
    """Observations and the known error variance; ``y_bar`` and ``syy`` are
    the mean of y and its sum of squared deviations."""

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
        for name, value in zip(("y_bar", "syy"), _mean_ss(y)):
            object.__setattr__(self, name, value)

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
    """A chain as read-only arrays A[n + 1], mu[n + 1], theta[n + 1, m], and the
    recursion's theta mean and SS, theta_bar[n + 1] and ss[n + 1], for a continuation."""

    A: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    theta_bar: np.ndarray
    ss: np.ndarray


def _mean_ss(x: np.ndarray) -> tuple[float, float]:
    mean = float(np.add.reduce(x)) / x.size
    d = x - mean
    return mean, float(np.add.reduce(d * d))


def ig_params(theta: np.ndarray, hyper: RemHyper) -> tuple[float, float]:
    """Inverse gamma parameters for the A draw:
    shape = a + (m - 1) / 2, rate = b + sum((theta_i - mean)^2) / 2."""
    m = theta.size
    if m < 2:
        raise ValueError("need at least 2 components")
    return hyper.a + (m - 1) / 2.0, hyper.b + 0.5 * _mean_ss(theta)[1]


def mu_params(theta: np.ndarray, A: float) -> tuple[float, float]:
    """Normal parameters for the mu draw: mean(theta) and A / m."""
    return float(np.add.reduce(theta)) / theta.size, A / theta.size


def theta_params(mu: float, A: float, data: RemData) -> tuple[np.ndarray, float]:
    """Normal parameters for the theta draw: one mean per coordinate,
    (V mu + A y_i) / (A + V), a convex combination of mu and y_i with weight
    A / (A + V) on the observation, and the common variance A V / (A + V),
    with A floored at ``A_FLOOR``. Columns mu[k, None] and A[k, None] give
    one row of parameters per sweep k.
    """
    A = np.maximum(A, A_FLOOR)
    V = data.V
    return (V * mu + A * data.y) / (A + V), A * V / (A + V)


def _sweeps(a_first: bool, A, mu, theta_bar, ss, noise, data: RemData, hyper: RemHyper):
    """Sweeps from the state (A, mu, theta_bar, ss), one per noise row
    (g, z_mu, z_bar, s_yz, s_zz), A drawn first (block) or last (ooo); the
    new states' four columns as lists. theta = theta_params' mean + s Z is
    c (y - y_bar) + s (Z - z_bar) about its mean, c = A / (A + V), so its
    mean and SS read Z through z_bar, s_yz = sum (y - y_bar)(Z - z_bar) and
    s_zz = sum (Z - z_bar)^2. mu reads A as drawn, theta A floored."""
    b, V, m, y_bar, syy = hyper.b, data.V, data.m, data.y_bar, data.syy
    columns = [], [], [], []
    put_A, put_mu, put_bar, put_ss = (column.append for column in columns)
    for g, z_mu, z_bar, s_yz, s_zz in noise:
        if a_first:
            A = (b + 0.5 * ss) / g
        mu = theta_bar + math.sqrt(A / m) * z_mu
        a = A
        if a < A_FLOOR:
            logger.warning("flooring A=%r at %r in theta draw", a, A_FLOOR)
            a = A_FLOOR
        c, s = a / (a + V), math.sqrt(a * V / (a + V))
        theta_bar = (V * mu + a * y_bar) / (a + V) + s * z_bar
        ss = c * c * syy + 2 * c * s * s_yz + s * s * s_zz
        if not a_first:
            A = (b + 0.5 * ss) / g
        put_A(A), put_mu(mu), put_bar(theta_bar), put_ss(ss)
    return columns


def default_init(data: RemData) -> tuple[float, float, np.ndarray]:
    """Start inside the support with no overdispersion: mu at the data mean,
    theta at the data, A at the sample variance (floored at 1e-6)."""
    a0 = max(float(np.var(data.y, ddof=1)), 1e-6)
    return a0, float(data.y.mean()), data.y.copy()


_STEPS: dict[str, Callable] = {v: functools.partial(_sweeps, v == "block") for v in VARIANTS}


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
    """Apply n sweeps to the state ``init`` = (A, mu, theta), or a trajectory
    row (A, mu, theta, theta_bar, ss), and return all n + 1 states, the
    initial one included.

    Every sweep's noise is drawn first, into the output arrays, one bulk
    draw per label and block of ``streams.BLOCK`` iterations: a unit
    gamma(a + (m - 1) / 2) under ``A`` (read at iteration + 1 by the
    out-of-order sweep), standard normals under ``mu`` and ``theta``. No
    draw depends on the state, so per chunk of rows the statistics of the
    theta noise take one pass, the sweeps one loop, and theta one pass over
    its noise. Passing an explicit ``stream`` allows chunked
    continuation (with ``first_iteration`` advanced, also to a point inside
    a block) and key auditing; from a trajectory row, results are identical
    to a monolithic run because each variate is addressed by its iteration,
    not by its position in the stream. An invalid initial state, or a sweep
    that produces one, raises, naming its iteration and the bad field.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in _STEPS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if np.shape(init[2]) != (data.m,):
        raise ValueError("init theta length does not match data")
    A, mu, theta = np.empty(n + 1), np.empty(n + 1), np.empty((n + 1, data.m))
    theta_bar, ss = np.empty(n + 1), np.empty(n + 1)
    A[0], mu[0], theta[0] = init[:3]
    _check_states(A[:1], mu[:1], theta[:1], variant, first_iteration - 1)
    theta_bar[0], ss[0] = init[3:] or _mean_ss(theta[0])
    if stream is None:
        stream = KeyedStream(seed)
    shape = ig_params(theta[0], hyper)[0]  # the same for every sweep
    a_ahead = 1 if variant == "ooo" else 0
    stream.gamma(StreamKey(first_iteration + a_ahead, STEP_A), shape, A[1:])
    stream.normal(StreamKey(first_iteration, STEP_MU), mu[1:])
    stream.normal(StreamKey(first_iteration, STEP_THETA), theta[1:])
    step = _STEPS[variant]  # the variant's chunk of sweeps, looked up per call: a tracer may rebind it
    dy = data.y - data.y_bar
    chunk = max(1, 4096 // data.m)  # rows per pass: 32 KB per temporary, whatever n and m
    for start in range(1, n + 1, chunk):
        rows = slice(start, min(start + chunk, n + 1))
        z = theta[rows]  # the rows' theta noise, overwritten with their theta
        z_bar = np.add.reduce(z, axis=1) / data.m
        dz = z - z_bar[:, None]
        noise = zip(A[rows].tolist(), mu[rows].tolist(), z_bar.tolist(),
                    *(np.add.reduce(dz * w, axis=1).tolist() for w in (dy, dz)))
        state = (column[start - 1].item() for column in (A, mu, theta_bar, ss))  # the row before
        A[rows], mu[rows], theta_bar[rows], ss[rows] = step(*state, noise, data, hyper)
        # each row's theta draw read the sweep's A (ooo: the one before it)
        a = A[start - a_ahead : rows.stop - a_ahead, None]
        mean, var = theta_params(mu[rows, None], a, data)
        z *= np.sqrt(var)
        z += mean
    _check_states(A, mu, theta, variant, first_iteration - 1)
    for column in (A, mu, theta, theta_bar, ss):
        column.setflags(write=False)
    return Trajectory(A, mu, theta, theta_bar, ss)


def shifted_view(trajectory: Trajectory) -> Trajectory:
    """Re-index a block trajectory as (mu_n, theta_n, A_{n+1}).

    The result has one fewer state and is exactly what the out-of-order
    sweep simulates: its state k equals the out-of-order state T_k when
    the out-of-order run starts from state 0 and shares the seed.
    """
    if trajectory.A.size < 2:
        raise ValueError("trajectory must have at least 2 states")
    return Trajectory(trajectory.A[1:], *(column[:-1] for column in trajectory[1:]))


def estimate(values: np.ndarray, burn_in: int) -> tuple[float, float]:
    """Ergodic average of per-state values (one per trajectory state) after
    burn-in, with a batch-means standard error. The n post-burn-in states
    make n // b batches of b = floor(sqrt(n)) states each, and the mean and
    the SE are taken over the first (n // b) * b of them: n = 130 uses 121."""
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


def _new_file(path, mode: str, **kwargs):
    """``open(path, mode)`` on a newly created file: whatever is at ``path``,
    a symlink too, is removed first, not truncated and written over."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, mode, **kwargs)


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write the states as CSV with columns iter, A, mu, theta_1..theta_m,
    iteration 0 included: every float as the bytes printf's ``%.17g`` gives
    it, CRLF line ends. Rows are formatted ``max(1, 4096 // (m + 3))`` at a
    time, so a pass holds at most 4,096 cells whatever n, or one row where a
    row is wider (m >= 4,094), and memory stays bounded."""
    A, mu, theta = trajectory[:3]
    m = theta.shape[1]
    width = m + 3
    rows = max(1, 4096 // width)
    block = np.empty((rows, width))
    with _new_file(path, "wb") as fh:
        names = ["iter", "A", "mu"] + [f"theta_{i}" for i in range(1, m + 1)]
        fh.write(",".join(names).encode() + b"\r\n")
        for start in range(0, A.size, rows):
            stop = min(start + rows, A.size)
            cells = block[: stop - start]
            # an integer below 2**53 prints the same under %.17g as under %d
            cells[:, 0] = np.arange(start, stop)
            cells[:, 1], cells[:, 2] = A[start:stop], mu[start:stop]
            cells[:, 3:] = theta[start:stop]
            fh.write(_csv_lines(cells))


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For i in [0, 10**4): the 4 bytes of "%04d" % i as one uint32, and the
    number of trailing zeros of those digits (4 for i = 0)."""
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.intp)
    for k in range(4):
        quads[..., k] = np.arange(48, 58).reshape((10,) + (1,) * (3 - k))
        zeros[(...,) + (0,) * (k + 1)] += 1
    return quads.view(np.uint32).ravel(), zeros.ravel()


_QUADS, _QUAD_ZEROS = _quad_tables()

_NEGATIVE = 21 * 21  # the layouts of 21 exponents x 21 fraction lengths, then their negatives
_FALLBACK = 2 * _NEGATIVE


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_csv_lines`` writes a cell into 32 bytes, "0000" and q's five 4-digit
    groups (the 17 digits are bytes 7-23), then NULs. With decimal exponent d
    and ``keep`` fraction digits it reads row (d + 4) * 21 + keep (+ _NEGATIVE
    if negative), and a printf cell row _FALLBACK, of three tables built in
    place in uint8: the bytes p = d + 8 to 23, which move one later to open
    byte p for the dot; the bytes printed after the move; and '.', '-', ','."""
    moved, shown, marks = np.zeros((3, _FALLBACK + 1, 32), dtype=np.uint8)
    mv, sh, mk = (t[:_FALLBACK].reshape(2, 21, 21, 32) for t in (moved, shown, marks))  # sign, d + 4, keep
    for d in range(-4, 17):
        p, whole = d + 8, min(7, d + 7)  # the whole part from byte whole: "0" for d < 0, else d + 1 digits
        mv[:, d + 4, :, p:24] = sh[:, d + 4, :, whole:p] = 0xFF
        mk[:, d + 4, 1:, p], mk[1, d + 4, :, whole - 1] = ord("."), ord("-")
        for keep in range(1, 17 - d):
            sh[:, d + 4, keep, p : p + keep + 1] = 0xFF
    shown[_FALLBACK, :24], marks[:, 30] = 0xFF, ord(",")
    return moved.view(np.uint64), shown.view(np.uint64), marks.view(np.uint64)


_MOVED, _SHOWN, _MARKS = _layout_tables()


def _split(a):
    """Dekker's split of a into a high and a low half of 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10 = 10.0 ** np.arange(22)  # exact doubles
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _csv_lines(cells: np.ndarray) -> bytes:
    """Each row of a 2-D float64 array as one CSV line: ``b"%.17g" % v`` for
    every cell, ',' between cells, CRLF at the end.

    A cell whose value printf writes in fixed notation, [1e-4, 1e17) in
    magnitude, is formatted by array arithmetic. d is the decimal exponent,
    10**d <= |v| < 10**(d + 1): log10's, corrected where it is one off next
    to a power of ten. q = |v| * 10**(16 - d) is then exactly p + e, p the
    rounded product and e its error (Dekker's two-product; 10**k is an
    exact double for k <= 22). p >= 1e16 is an even integer, so p + rint(e)
    is q rounded half to even: the 17 digits printf prints. (No double in
    the range lies within half a 17th digit below a power of ten, so the
    rounding never carries into an 18th.) The digits are laid out by d, with
    the fraction's trailing zeros dropped. Every other cell (zeros,
    subnormals, exponent form, non-finite values) is printf's own; where
    such cells are more than half of the array, printf writes every cell.
    Each cell is a 32-byte row of four uint64 words: its bytes from p on move
    one byte later in one shift of the flat buffer, an AND and an OR with rows
    of _layout_tables leave the printed bytes, and ``translate`` drops the NULs.
    """
    lines, width = cells.shape
    v = cells.ravel()
    a = np.abs(v)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))  # NaN too; no double lies in [10**-4, 1e-4)
    if 2 * other.size > v.size:  # then printf alone is faster than the array work
        return (b",".join([b"%.17g"] * width) + b"\r\n") * lines % tuple(v.tolist())
    a[other] = 1.0
    d = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    high, low = _split(a)
    while True:  # exact tests of q against 1e16 and 1e17 move d to the exponent
        k = 16 - d
        p, high_k, low_k = a * _POW10.take(k), _POW10_HIGH.take(k), _POW10_LOW.take(k)
        e = (high * high_k - p) + high * low_k + low * high_k + low * low_k
        off = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
        off -= (p < 1e16) | ((p == 1e16) & (e < 0))
        if not off.any():
            break
        d += off
    q = p.astype(np.int64) + np.rint(e).astype(np.int64)
    del a, high, low, p, e, high_k, low_k, off
    quads = np.empty((5, v.size), dtype=np.intp)  # q's 4-digit groups, high first
    for j, place in enumerate((10**16, 10**12, 10**8, 10**4)):
        quads[j] = q // place
        q -= quads[j] * place
    quads[4] = q
    zeros = _QUAD_ZEROS.take(quads[4])
    run = quads[4] == 0
    for j in (3, 2, 1):  # the first group is q's leading digit, never 0
        zeros += run * _QUAD_ZEROS.take(quads[j])
        run &= quads[j] == 0
    row = np.zeros((v.size, 32), dtype=np.uint8)
    row.view(np.uint32)[:, 0], row.view(np.uint32)[:, 1:6] = _QUADS[0], _QUADS.take(quads).T
    layout = (d + 4) * 21 + np.maximum(16 - d - zeros, 0) + (v < 0) * _NEGATIVE
    layout[other] = _FALLBACK
    if other.size:  # one printf call; its space padding becomes NUL
        text = np.frombuffer(b"%-24.17g" * other.size % tuple(v[other].tolist()), np.uint8)
        row[other, :24] = np.where(text == 32, 0, text).reshape(-1, 24)
    # the spent digit groups take each mask in turn; "clip" writes to out unbuffered
    words, mask = row.view(np.uint64), quads.reshape(-1)[: row.size // 8].view(np.uint64).reshape(-1, 4)
    rest = np.bitwise_and(words, _MOVED.take(layout, axis=0, out=mask, mode="clip"), out=mask)
    words ^= rest
    row.reshape(-1)[1:] |= rest.view(np.uint8).reshape(-1)[:-1]  # rest ends each row in NUL: no byte crosses cells
    words &= _SHOWN.take(layout, axis=0, out=mask, mode="clip")
    words |= _MARKS.take(layout, axis=0, out=mask, mode="clip")
    row.reshape(lines, width, 32)[:, -1, 30:] = (ord("\r"), ord("\n"))
    del quads, mask, rest, layout
    return words.tobytes().translate(None, b"\0")
