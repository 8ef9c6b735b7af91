"""Finite joint distributions on a three-variable product space.

Everything downstream works from a dense probability tensor p[x, y, z] on
X x Y x Z. This module owns that type together with its marginals and
conditionals, the twisted distribution targeted by the out-of-order sweep
(``pi_star``), and total variation distance on finite tables.

On finite spaces every quantity of interest is computable exactly, so all
tolerances here are machine-precision ones, not statistical ones.
"""

from __future__ import annotations

import functools
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

#: Dims caps the cells of each coordinate pair at construction. Every core
#: sits on a pair or a coordinate (K_xy on nx * ny states, the ooo core on
#: nz * nx, K_z on nz), and every other array the exact path makes is at
#: most the square of a pair's cells (nu_z's nz * nz * nx, nu_xz's, Q, the
#: s-wide tables). So no array exceeds 4,096^2 float64s (128 MiB), the size
#: a dense s x s kernel had under the old cap of 4,096 states.
PAIR_CELL_CAP = 4096


def _axis_indices(labels: Iterable[str]) -> tuple[int, ...]:
    """Canonical axis indices for a subset of variable labels."""
    subset = set(labels)
    unknown = subset - set(AXES)
    if unknown:
        raise ValueError(f"unknown variable labels: {sorted(unknown)}")
    if not subset:
        raise ValueError("variable subset must be nonempty")
    return tuple(i for i, a in enumerate(AXES) if a in subset)


@dataclass(frozen=True)
class Dims:
    """Sizes of the three coordinate spaces.

    The product nx * ny * nz is the number of joint states. What is capped
    is each pair's product (nx * ny, ny * nz, nx * nz), at ``PAIR_CELL_CAP``:
    the exact path holds core factors and arrays of at most a pair's cells
    squared, never anything s x s.
    """

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        for name, n in zip(("nx", "ny", "nz"), (self.nx, self.ny, self.nz)):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
        pairs = {"nx * ny": self.nx * self.ny, "ny * nz": self.ny * self.nz, "nx * nz": self.nx * self.nz}
        pair = max(pairs, key=pairs.get)
        if pairs[pair] > PAIR_CELL_CAP:
            raise ValueError(f"{pair} = {pairs[pair]} pair cells exceed the cap of {PAIR_CELL_CAP}")

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
    construction; operations on it are pure functions. What is derived from
    it alone (conditional tables, ``pi_star``, the five sweep kernels and the
    ``nu_z`` and ``nu_xz`` start banks) is built on first use and kept in
    ``_derived``, so each is built once per pmf and every caller shares the
    same read-only object.
    """

    dims: Dims
    p: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

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
        """The pmf of a ``to_json_dict`` document, which may come from
        outside the program: a ValueError names the field at fault."""
        if not isinstance(doc, dict):
            raise ValueError(f"a pmf must be an object with fields dims and p, got {type(doc).__name__}")
        for key in ("dims", "p"):
            if key not in doc:
                raise ValueError(f"missing field {key!r}")
        dims = doc["dims"]
        if not isinstance(dims, (list, tuple)) or len(dims) != 3:
            raise ValueError(f"dims must be a list of three sizes, got {dims!r}")
        # int() would truncate 2.5 to 2 and take true as 1
        whole = (isinstance(n, int) and not isinstance(n, bool)
                 or isinstance(n, float) and n.is_integer() for n in dims)
        if not all(whole):
            raise ValueError(f"dims must be whole numbers, got {dims!r}")
        dims = Dims(*(int(n) for n in dims))
        try:
            p = np.asarray(doc["p"], dtype=float).reshape(dims.shape, order="C")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"p must be a list of {dims.size} numbers: {exc}") from None
        return cls(dims, p)


def _kept(build):
    """Decorate a function of an object with a ``_derived`` dict (a pmf or a
    kernel) and hashable arguments: its result is built on the first call
    with them, kept in the dict, and returned by every later call. A call
    with an unhashable argument, such as a list, builds every time."""

    @functools.wraps(build)
    def kept(owner, *args):
        key = (build, *args)
        try:
            return owner._derived[key]
        except KeyError:
            # threads that both built it still return the one kept object
            return owner._derived.setdefault(key, build(owner, *args))
        except TypeError:
            return build(owner, *args)

    return kept


def marginal(pmf: JointPmf3, variables: Iterable[str]) -> np.ndarray:
    """Read-only table of the pmf summed over the complement of
    ``variables``. Its axes are in canonical (X, Y, Z) order, whatever the
    order of ``variables``."""
    keep = _axis_indices(variables)
    drop = tuple(i for i in range(3) if i not in keep)
    if not drop:
        return pmf.p
    table = pmf.p.sum(axis=drop)
    table.setflags(write=False)
    return table


@_kept
def conditional(pmf: JointPmf3, target: Iterable[str], given: Iterable[str], /) -> np.ndarray:
    """Conditional table of ``target`` given ``given``.

    Its axes are (given..., target...), each group in canonical (X, Y, Z)
    order whatever the order of the labels, and every conditioning row sums
    to 1. Raises if a conditioning cell has zero probability; strictly
    positive pmfs (e.g. from ``random_pmf``) can never hit that path. The
    table is read-only and kept on the pmf, so every call with the same pmf
    and variables returns the same array; a repeated call is one lookup.
    """
    t_axes = _axis_indices(target)
    g_axes = _axis_indices(given)
    if set(t_axes) & set(g_axes):
        raise ValueError("target and given must be disjoint")
    return _conditional(pmf, t_axes, g_axes)


@_kept
def _conditional(pmf: JointPmf3, t_axes: tuple[int, ...], g_axes: tuple[int, ...]) -> np.ndarray:
    """``conditional`` on canonical axes: one table however labels are spelled."""
    union = sorted(t_axes + g_axes)
    joint = marginal(pmf, [AXES[i] for i in union])
    # reorder union axes to (given..., target...)
    perm = [union.index(i) for i in g_axes] + [union.index(i) for i in t_axes]
    joint = np.transpose(joint, perm)

    denom = marginal(pmf, [AXES[i] for i in g_axes])
    if (denom == 0).any():
        bad = np.argwhere(denom == 0)[0]
        cell = ", ".join(f"{AXES[a]}={i}" for a, i in zip(g_axes, bad))
        raise ValueError(f"conditioning cell ({cell}) has zero probability")
    # C order, so that the kernels built from it sum in one fixed order
    table = np.ascontiguousarray(joint / denom.reshape(denom.shape + (1,) * len(t_axes)))
    table.setflags(write=False)
    return table


@_kept
def pi_star(pmf: JointPmf3) -> JointPmf3:
    """Distribution actually preserved by the out-of-order sweep.

    q(x, y, z) = P(X=x | Z=z) * P(Y=y, Z=z). It agrees with the input on
    every marginal except those coupling X and Y jointly. Built once per pmf.
    """
    cx_given_z = conditional(pmf, ("X",), ("Z",))  # axes (z, x)
    m_yz = marginal(pmf, ("Y", "Z"))  # axes (y, z)
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
