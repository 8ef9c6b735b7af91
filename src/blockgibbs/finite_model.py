"""Finite joint distributions on a three-variable product space.

Everything downstream works from a dense probability tensor p[x, y, z] on
X x Y x Z. This module owns that type together with its marginals and
conditionals, the twisted distribution targeted by the out-of-order sweep
(``pi_star``), and total variation distance on finite tables.

On finite spaces every quantity of interest is computable exactly, so all
tolerances here are machine-precision ones, not statistical ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: Canonical variable order. Tensor axis i always belongs to AXES[i].
AXES = ("X", "Y", "Z")

#: Mass-drift handling at construction: drift within SUM_TOL is accepted,
#: drift up to RENORM_LIMIT is silently repaired with a warning, anything
#: larger is rejected as a malformed input.
SUM_TOL = 1e-14
RENORM_LIMIT = 1e-6

#: Dims enforces this cap at construction. The exact path works on factored
#: kernels (O(r s) per step for r distinct rows), but ``Kernel.matrix``, the
#: dense s x s view behind CSV export and the test oracles, is about 134 MB
#: at the cap.
DEFAULT_STATE_CAP = 4096


def _axis_indices(labels: Iterable[str]) -> tuple[int, ...]:
    """Canonical axis indices for a subset of variable labels."""
    subset = set(labels)
    unknown = subset - set(AXES)
    if unknown:
        raise ValueError(f"unknown variable labels: {sorted(unknown)}")
    if not subset:
        raise ValueError("variable subset must be nonempty")
    return tuple(i for i, a in enumerate(AXES) if a in subset)


def _canonical(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(AXES[i] for i in _axis_indices(labels))


@dataclass(frozen=True)
class Dims:
    """Sizes of the three coordinate spaces.

    The product nx * ny * nz is the number of joint states; it is capped so
    that the dense s x s views of the kernels stay small.
    """

    nx: int
    ny: int
    nz: int
    cap: int = field(default=DEFAULT_STATE_CAP, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, n in zip(("nx", "ny", "nz"), (self.nx, self.ny, self.nz)):
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
        if self.size > self.cap:
            raise ValueError(
                f"state space has {self.size} cells, exceeding the cap of {self.cap}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz


@dataclass(frozen=True, eq=False)
class JointPmf3:
    """Joint probability mass function on X x Y x Z.

    The tensor is validated (nonnegative, unit mass) and frozen read-only at
    construction; operations on it are pure functions. ``conditional``
    keeps each table it builds here, so each is built once per pmf.
    """

    dims: Dims
    p: np.ndarray
    _conditionals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.shape != self.dims.shape:
            raise ValueError(f"tensor shape {p.shape} does not match dims {self.dims.shape}")
        finite = np.isfinite(p).ravel()
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"probabilities must be finite; flat index {bad} is {float(p.flat[bad])!r}"
            )
        if (p < 0).any():
            raise ValueError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > RENORM_LIMIT:
            raise ValueError(f"probabilities sum to {total:.9g}, expected 1")
        if abs(total - 1.0) > SUM_TOL:
            warnings.warn(
                f"renormalizing pmf whose mass {total!r} drifted from 1", stacklevel=2
            )
            p = p / total
        else:
            p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def to_json_dict(self) -> dict:
        """JSON form: {"dims": [nx, ny, nz], "p": [...]} with p raveled so
        that flat index = (x * ny + y) * nz + z."""
        return {"dims": list(self.dims.shape), "p": self.p.ravel(order="C").tolist()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointPmf3":
        dims = Dims(*(int(n) for n in doc["dims"]))
        p = np.asarray(doc["p"], dtype=float).reshape(dims.shape, order="C")
        return cls(dims, p)


@dataclass(frozen=True, eq=False)
class MarginalTable:
    """Probability table over a subset of the variables, axes in canonical order."""

    variables: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.variables != _canonical(self.variables):
            raise ValueError("variables must be in canonical (X, Y, Z) order")
        t = np.asarray(self.table, dtype=float)
        if t.ndim != len(self.variables):
            raise ValueError("table rank does not match variable count")
        if abs(float(t.sum()) - 1.0) > 1e-12:
            raise ValueError("marginal table must sum to 1")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Conditional probability table.

    ``table`` axes are (given..., target...), each group in canonical order,
    and every conditioning row sums to 1.
    """

    target: tuple[str, ...]
    given: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.target != _canonical(self.target) or self.given != _canonical(self.given):
            raise ValueError("variable groups must be in canonical (X, Y, Z) order")
        if set(self.target) & set(self.given):
            raise ValueError("target and given must be disjoint")
        t = np.asarray(self.table, dtype=float)
        if t.ndim != len(self.target) + len(self.given):
            raise ValueError("table rank does not match variable counts")
        row_sums = t.sum(axis=tuple(range(len(self.given), t.ndim)))
        if np.abs(row_sums - 1.0).max() > 1e-12:
            raise ValueError("every conditional row must sum to 1")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def marginal(pmf: JointPmf3, variables: Iterable[str]) -> MarginalTable:
    """Sum the joint tensor over the complement of ``variables``."""
    keep = _axis_indices(variables)
    drop = tuple(i for i in range(3) if i not in keep)
    table = pmf.p.sum(axis=drop) if drop else np.asarray(pmf.p)
    return MarginalTable(tuple(AXES[i] for i in keep), table)


def conditional(
    pmf: JointPmf3, target: Iterable[str], given: Iterable[str]
) -> ConditionalTable:
    """Conditional distribution of ``target`` given ``given``.

    Raises if a conditioning cell has zero probability; strictly positive
    pmfs (e.g. from ``random_pmf``) can never hit that path. The table is
    read-only and shared by every call with the same pmf and variables.
    """
    t_axes = _axis_indices(target)
    g_axes = _axis_indices(given)
    if set(t_axes) & set(g_axes):
        raise ValueError("target and given must be disjoint")
    cached = pmf._conditionals.get((t_axes, g_axes))
    if cached is not None:
        return cached

    union = sorted(t_axes + g_axes)
    joint = marginal(pmf, [AXES[i] for i in union]).table
    # reorder union axes to (given..., target...)
    perm = [union.index(i) for i in g_axes] + [union.index(i) for i in t_axes]
    joint = np.transpose(joint, perm)

    denom = marginal(pmf, [AXES[i] for i in g_axes]).table
    if (denom == 0).any():
        bad = np.argwhere(denom == 0)[0]
        cell = ", ".join(f"{AXES[a]}={i}" for a, i in zip(g_axes, bad))
        raise ValueError(f"conditioning cell ({cell}) has zero probability")
    table = joint / denom.reshape(denom.shape + (1,) * len(t_axes))
    result = ConditionalTable(
        tuple(AXES[i] for i in t_axes), tuple(AXES[i] for i in g_axes), table
    )
    pmf._conditionals[(t_axes, g_axes)] = result
    return result


def pi_star(pmf: JointPmf3) -> JointPmf3:
    """Distribution actually preserved by the out-of-order sweep.

    q(x, y, z) = P(X=x | Z=z) * P(Y=y, Z=z). It agrees with the input on
    every marginal except those coupling X and Y jointly.
    """
    cx_given_z = conditional(pmf, ("X",), ("Z",)).table  # axes (z, x)
    m_yz = marginal(pmf, ("Y", "Z")).table  # axes (y, z)
    q = np.einsum("zx,yz->xyz", cx_given_z, m_yz)
    q /= q.sum()
    return JointPmf3(pmf.dims, q)


def random_pmf(dims: Dims, seed: int, floor: float) -> JointPmf3:
    """Seeded strictly positive pmf with every entry >= floor.

    The floor guarantees irreducibility and aperiodicity of every kernel
    built from the result.
    """
    size = dims.size
    if not (0.0 < floor < 1.0 / size):
        raise ValueError(f"floor must lie in (0, {1.0 / size:.6g}), got {floor}")
    rng = np.random.default_rng(seed)
    w = rng.random(dims.shape)
    w /= w.sum()
    p = floor + (1.0 - size * floor) * w
    p /= p.sum()
    return JointPmf3(dims, p)


def product_pmf(
    px: Sequence[float], py: Sequence[float], pz: Sequence[float]
) -> JointPmf3:
    """Independent product p(x, y, z) = px(x) py(y) pz(z)."""
    factors = []
    for name, vec in zip(("px", "py", "pz"), (px, py, pz)):
        f = np.asarray(vec, dtype=float)
        if f.ndim != 1 or f.size < 1:
            raise ValueError(f"{name} must be a 1-D probability vector")
        if (f < 0).any() or abs(float(f.sum()) - 1.0) > 1e-12:
            raise ValueError(f"{name} is not a normalized probability vector")
        factors.append(f)
    p = np.einsum("x,y,z->xyz", *factors)
    p /= p.sum()
    return JointPmf3(Dims(*(f.size for f in factors)), p)


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two probability tables: half the L1
    distance, equal on finite spaces to the sup over [0, 1]-valued functions
    of the difference in expectations."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())
