"""Transition kernels for the two-block sweep family, in factored form.

Rows index the current state, columns the next state, and a codec fixes the
tuple ordering per chain:

  block          codec (X, Y, Z):
      P[(x,y,z), (x',y',z')] = P(x',y' | z) * P(z' | x',y')
  rotated block  codec (Z, X, Y):
      P[(z,x,y), (z',x',y')] = P(z' | x,y) * P(x',y' | z')
  out-of-order   codec (Y, Z, X):
      P[(y,z,x), (y',z',x')] = P(y' | x,z) * P(z' | x,y') * P(x' | z')
  xy-marginal    codec (X, Y):
      P[(x,y), (x',y')] = sum_z P(z | x,y) * P(x',y' | z)
  z-marginal     codec (Z,):
      P[z, z'] = sum_{x',y'} P(x',y' | z) * P(z' | x',y')

plus single-site sweeps in any of the six update orders (``gibbs_kernel``),
each on the codec of its update order. The block, rotated, and
out-of-order sweeps compose the same three single-coordinate update
operators in cyclically shifted orders, which is why their nonzero spectra
coincide.

A sweep's rows read only part of the current state: z for block, (x, y)
for rotated, (z, x) for out-of-order, and all but the first-updated
coordinate for a single-site sweep. Each codec lists the coordinates its
rows do not read first, so state i reads row i mod r, and each kernel is
stored as K = R C: the r distinct rows C (r x s) and the 0/1 selector R, the
r x r identity stacked s / r times. The nonzero spectrum of K is the
spectrum of the r x r core C R (Liu, Wong & Kong 1994), and one step
v K = (v R) C costs O(r s). The block kernel's core is the z-marginal
kernel and the rotated kernel's core is the xy-marginal kernel.

The five kernel factories build their kernel once per pmf and keep it on
the pmf, so every caller shares one read-only kernel, its core and its
core eigenvalues. The prop1 start measures are kept the same way, as
banks with one probability vector per row: ``nu_z`` (one row per z) and
``nu_xz`` (one row per (x, z)), each built in one array operation.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .finite_model import AXES, JointPmf3, _once_per_pmf, conditional, marginal

#: Row-stochasticity tolerance for kernel rows.
ROW_SUM_TOL = 1e-12

# einsum letters: current state coordinates and next state coordinates
_CUR = {"X": "x", "Y": "y", "Z": "z"}
_NXT = {"X": "a", "Y": "b", "Z": "c"}


@dataclass(frozen=True)
class StateCodec:
    """Bijection between variable tuples (in a fixed label order) and flat
    row/column indices, mixed-radix with the last label varying fastest."""

    labels: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.sizes) or not self.labels:
            raise ValueError("labels and sizes must be nonempty and equal length")
        if len(set(self.labels)) != len(self.labels) or not set(self.labels) <= set(AXES):
            raise ValueError(f"labels must be distinct members of {AXES}")
        if any(s < 1 for s in self.sizes):
            raise ValueError("all sizes must be >= 1")

    @classmethod
    def for_labels(cls, pmf: JointPmf3, labels: Sequence[str]) -> "StateCodec":
        by_label = dict(zip(AXES, pmf.dims.shape))
        return cls(tuple(labels), tuple(by_label[lab] for lab in labels))

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    def encode(self, state: Sequence[int]) -> int:
        if len(state) != len(self.sizes):
            raise ValueError("state tuple has wrong length")
        flat = 0
        for i, n in zip(state, self.sizes):
            if not 0 <= i < n:
                raise ValueError(f"coordinate {i} out of range [0, {n})")
            flat = flat * n + i
        return flat

    def decode(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.size:
            raise ValueError(f"flat index {flat} out of range [0, {self.size})")
        out = []
        for n in reversed(self.sizes):
            flat, i = divmod(flat, n)
            out.append(i)
        return tuple(reversed(out))

    def state_label(self, flat: int) -> str:
        """Human-readable column label, e.g. "x0_y1_z2"."""
        return "_".join(
            f"{lab.lower()}{i}" for lab, i in zip(self.labels, self.decode(flat))
        )

    def flatten_canonical(self, table: np.ndarray) -> np.ndarray:
        """Ravel a table whose axes follow canonical (X, Y, Z) order into
        this codec's state order."""
        canon = sorted(self.labels, key=AXES.index)
        perm = [canon.index(lab) for lab in self.labels]
        return np.transpose(np.asarray(table, dtype=float), perm).ravel()


@dataclass(frozen=True, eq=False)
class Kernel:
    """Row-stochastic transition kernel K = R C plus the codec describing
    its rows.

    ``rows`` holds the r distinct rows C (r x s), with r dividing s, and
    state i reads row i % r: K is C stacked s / r times. A codec that lists
    the coordinates the rows do not read first gives every sweep this
    layout. With r = s the rows are a dense s x s matrix.
    """

    codec: StateCodec
    rows: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.rows, dtype=float)
        n = self.codec.size
        if c.ndim != 2 or c.shape[1] != n or n % c.shape[0]:
            raise ValueError(f"rows shape {c.shape} does not match codec size {n}")
        if (c < 0).any():
            raise ValueError("kernel entries must be nonnegative")
        if np.abs(c.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("every kernel row must sum to 1")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "rows", c)

    def _select(self, v: np.ndarray) -> np.ndarray:
        """v R: the mass of v (or of each row of a bank) on each row, summed
        over its s / r readers; v itself when r = s."""
        v = np.asarray(v)
        r, n = self.rows.shape
        return v if r == n else v.reshape(v.shape[:-1] + (n // r, r)).sum(axis=-2)

    def step(self, v: np.ndarray) -> np.ndarray:
        """v K = (v R) C for a vector or each row of a bank of vectors."""
        return self._select(v) @ self.rows

    @functools.cached_property
    def core(self) -> np.ndarray:
        """The r x r core C R (read-only); K's nonzero spectrum is the
        core's."""
        core = self._select(self.rows)
        core.setflags(write=False)
        return core

    @functools.cached_property
    def core_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the core (read-only). K's eigenvalues are these
        plus s - r structural zeros."""
        eigs = np.linalg.eigvals(self.core)
        eigs.setflags(write=False)
        return eigs

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense s x s view: ``rows`` stacked s / r times."""
        m = np.tile(self.rows, (self.codec.size // self.rows.shape[0], 1))
        m.setflags(write=False)
        return m

    def to_csv(self, path) -> None:
        """Dense dump with state labels on the header row and first column."""
        labels = [self.codec.state_label(j) for j in range(self.codec.size)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state"] + labels)
            for i, row in enumerate(self.matrix):
                writer.writerow([labels[i]] + [format(v, ".17g") for v in row])


def flatten_to_codec(pmf: JointPmf3, codec: StateCodec) -> np.ndarray:
    """Marginal of the pmf on the codec's variables, flattened to its state
    order. For a three-variable codec this is the full joint."""
    return codec.flatten_canonical(marginal(pmf, codec.labels))


def _kernel_from_einsum(
    codec: StateCodec, unread: int, inputs: str, operands: Iterable[np.ndarray]
) -> Kernel:
    """Factored kernel whose rows do not read the first ``unread`` codec
    coordinates. ``inputs`` are the einsum subscripts of the operands,
    current coordinates in lower case x, y, z and next ones in a, b, c."""
    output = "".join(_CUR[lab] for lab in codec.labels[unread:]) + "".join(
        _NXT[lab] for lab in codec.labels
    )
    rows = np.einsum(f"{inputs}->{output}", *operands)
    return Kernel(codec, rows.reshape(-1, codec.size))


def gibbs_kernel(pmf: JointPmf3, ordering: Sequence[str]) -> Kernel:
    """Single-site sweep updating each coordinate from its full conditional,
    in the given order, always conditioning on the freshest values.

    The codec is the update order, first-updated coordinate first: rows
    never read its current value, so there is one row per value of the
    other two. Any of the six orders leaves the input pmf invariant.
    """
    order = tuple(ordering)
    if sorted(order) != sorted(AXES):
        raise ValueError(f"ordering must be a permutation of {AXES}, got {order!r}")
    operands = []
    subs = []
    drawn: set[str] = set()
    for label in order:
        others = tuple(a for a in AXES if a != label)
        subs.append(
            "".join(_NXT[u] if u in drawn else _CUR[u] for u in others) + _NXT[label]
        )
        operands.append(conditional(pmf, (label,), others))
        drawn.add(label)
    codec = StateCodec.for_labels(pmf, order)
    return _kernel_from_einsum(codec, 1, ",".join(subs), operands)


@_once_per_pmf
def block_kernel(pmf: JointPmf3) -> Kernel:
    """Joint (X, Y) refresh given Z, then Z refresh. Rows depend only on z:
    nz distinct rows."""
    c_xy = conditional(pmf, ("X", "Y"), ("Z",))  # (z, x', y')
    c_z = conditional(pmf, ("Z",), ("X", "Y"))  # (x', y', z')
    codec = StateCodec.for_labels(pmf, ("X", "Y", "Z"))
    return _kernel_from_einsum(codec, 2, "zab,abc", [c_xy, c_z])


@_once_per_pmf
def rotated_block_kernel(pmf: JointPmf3) -> Kernel:
    """Z refresh first, then the joint (X, Y) refresh given the new z.

    This is the one reordering of the block sweep that stays valid; rows
    depend only on (x, y): nx * ny distinct rows.
    """
    c_z = conditional(pmf, ("Z",), ("X", "Y"))  # (x, y, z')
    c_xy = conditional(pmf, ("X", "Y"), ("Z",))  # (z', x', y')
    codec = StateCodec.for_labels(pmf, ("Z", "X", "Y"))
    return _kernel_from_einsum(codec, 1, "xyc,cab", [c_z, c_xy])


@_once_per_pmf
def ooo_kernel(pmf: JointPmf3) -> Kernel:
    """Out-of-order sweep: Y given (x, z), then Z given (x, y'), then X
    given z'. Splitting the joint (X, Y) refresh across iterations is what
    changes the invariant distribution.

    Rows never read the current y, so there are nz * nx distinct rows, one
    per (z, x).
    """
    c_y = conditional(pmf, ("Y",), ("X", "Z"))  # (x, z, y')
    c_z = conditional(pmf, ("Z",), ("X", "Y"))  # (x, y', z')
    c_x = conditional(pmf, ("X",), ("Z",))  # (z', x')
    codec = StateCodec.for_labels(pmf, ("Y", "Z", "X"))
    return _kernel_from_einsum(codec, 1, "xzb,xbc,ca", [c_y, c_z, c_x])


@_once_per_pmf
def marginal_xy_kernel(pmf: JointPmf3) -> Kernel:
    """Projection of the block sweep onto (X, Y); reversible with respect to
    the (X, Y)-marginal of the pmf."""
    c_z = conditional(pmf, ("Z",), ("X", "Y"))  # (x, y, z)
    c_xy = conditional(pmf, ("X", "Y"), ("Z",))  # (z, x', y')
    codec = StateCodec.for_labels(pmf, ("X", "Y"))
    return _kernel_from_einsum(codec, 0, "xyz,zab", [c_z, c_xy])


@_once_per_pmf
def marginal_z_kernel(pmf: JointPmf3) -> Kernel:
    """Projection of the block sweep onto Z; reversible with respect to the
    Z-marginal of the pmf."""
    c_xy = conditional(pmf, ("X", "Y"), ("Z",))  # (z, x', y')
    c_z = conditional(pmf, ("Z",), ("X", "Y"))  # (x', y', z')
    codec = StateCodec.for_labels(pmf, ("Z",))
    return _kernel_from_einsum(codec, 0, "zab,abc", [c_xy, c_z])


@_once_per_pmf
def nu_z(pmf: JointPmf3) -> np.ndarray:
    """The nz start measures, row z pinning Z = z with X drawn from
    P(X | Z=z) (read-only), on the out-of-order codec (Y, Z, X).

    The Y slot is a dummy fixed at index 0: the out-of-order kernel never
    reads it, so any choice gives the same distribution after one step.
    """
    nx, ny, nz = pmf.dims.shape
    c_x = conditional(pmf, ("X",), ("Z",))  # (z, x)
    bank = np.zeros((nz, ny, nz, nx))
    z = np.arange(nz)
    bank[z, 0, z] = c_x
    bank = bank.reshape(nz, -1)
    bank.setflags(write=False)
    return bank


@_once_per_pmf
def nu_xz(pmf: JointPmf3) -> tuple[np.ndarray, np.ndarray]:
    """The nx * nz start measures pinning X = x with Y drawn from
    P(Y | X=x, Z=z), row x * nz + z (read-only), in two forms: flat on codec
    (X, Y), and lifted to the rotated codec (Z, X, Y) with a dummy Z slot at
    index 0 (the rotated kernel never reads the current z).

    One rotated step from a lifted row has the same (X, Y) distribution as
    one xy-marginal step from the flat row, exactly.
    """
    nx, ny, nz = pmf.dims.shape
    c_y = conditional(pmf, ("Y",), ("X", "Z"))  # (x, z, y)
    flat = np.zeros((nx, nz, nx, ny))
    x = np.arange(nx)
    flat[x, :, x] = c_y
    flat = flat.reshape(nx * nz, nx * ny)
    # the lifted codec's z = 0 states come first, in the flat codec's order
    lifted = np.zeros((nx * nz, nz * nx * ny))
    lifted[:, : nx * ny] = flat
    flat.setflags(write=False)
    lifted.setflags(write=False)
    return flat, lifted
