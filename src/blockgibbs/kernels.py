"""Transition kernels for the two-block sweep family, as conditional updates.

Rows index the current state, columns the next state, and a codec fixes the
tuple ordering per chain. A sweep is a list of conditional updates, each
drawing one coordinate given the freshest values of the ones it names. The
block sweep's list is

  STEPS = (X | Z,  Y | (X, Z),  Z | (X, Y))

and the two-block sweeps are its rotations:

  block          STEPS rotated by 0, codec (X, Y, Z), rows read z
  out-of-order   STEPS rotated by 1, codec (Y, Z, X), rows read (z, x)
  rotated block  STEPS rotated by 2, codec (Z, X, Y), rows read (x, y)
  z-marginal     the block sweep on codec (Z,):      K_z, the block core
  xy-marginal    the rotated sweep on codec (X, Y): K_xy, the rotated core

plus single-site sweeps, the three full conditionals in any of the six
update orders (``gibbs_kernel``). The block, rotated, and out-of-order
sweeps compose the same three single-coordinate update operators in
cyclically shifted orders, which is why their nonzero spectra coincide.

A ``Kernel`` stores its conditional updates; a dense kernel, such as a
test's, is one table. A sweep's codec is its draw order, and it reads the
coordinates some update reads before drawing them, a suffix of the draw
order. So state i reads row i mod r, K = R C with C the r distinct rows and
R the r x r identity stacked s / r times, the core C R has K's nonzero
spectrum (Liu, Wong & Kong 1994), and a step v K runs the updates in turn.
Split where its update cycle holds fewest values, k, the core is L U with
U L k x k, and U L has its nonzero spectrum in turn: with A = P(X,Y | Z)
and B = P(Z | X,Y), the block core is A B, the rotated one B A, and the
out-of-order one M N with N M = A B, each split at z' alone (when nz is
the smallest). The package forms none of C, K and the core itself.

The five kernel factories and the prop1 start-measure banks, ``nu_z`` (row
z, on codec (Z, X)) and ``nu_xz`` (row (x, z), on codec (X, Y)), build their
object once per pmf and keep it on the pmf: every caller shares one. A
marginal chain is a view of its sweep (``Kernel.core_chain``) that shares its
tables, factors and solves. What a kernel builds from its labels and
subscripts alone is planned once per sweep.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .finite_model import AXES, JointPmf3, _kept, conditional, marginal

#: Row-stochasticity tolerance for kernel rows.
ROW_SUM_TOL = 1e-12

#: The block sweep's conditional updates in order, each (drawn coordinate,
#: coordinates it is drawn given). The other two-block sweeps rotate it.
STEPS = (("X", "Z"), ("Y", "XZ"), ("Z", "XY"))

# einsum letters: a coordinate's current value is its label in lower case
# (x, y, z), its next value that letter translated by _NEXT (a, b, c)
_NEXT = str.maketrans("xyz", "abc")


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


@dataclass(frozen=True, eq=False)
class Kernel:
    """Row-stochastic transition kernel on the codec's states, stored as its
    conditional updates and its r x r core's factors (L, U), read-only: the
    updates up to where the cycle holds fewest values, k, and the rest. The
    core's eigenvalues and stationary solve come from ``reduced`` = U L on
    first use, kept in ``_derived``, which the kernel's ``core_chain`` shares.

    ``updates`` holds (einsum subscript, table) pairs, run in turn. A
    subscript names its table's axes: current coordinates x, y, z and next
    ones a, b, c. An update draws the next coordinates it is the first to
    name, and K[i, j] is the product of the tables at (state i, state j),
    summed over any coordinate drawn outside the codec. Every codec
    coordinate is drawn. The coordinates read at their current values must
    be a suffix of the codec, so state i reads row i % r.
    """

    codec: StateCodec
    updates: tuple
    factors: tuple = field(init=False, repr=False)  # (L, U)
    reduced: np.ndarray = field(init=False, repr=False)  # U L
    _steps: tuple = field(init=False, repr=False)  # (einsum, table) per update
    _derived: dict = field(default_factory=dict, init=False, repr=False)  # the core's, shared by core_chain

    def __post_init__(self) -> None:
        labels = self.codec.labels
        cur = "".join(labels).lower()
        subs = tuple(sub for sub, _ in self.updates)
        tables = [np.asarray(t, dtype=float) for _, t in self.updates]
        tables = [t.copy() if t.flags.writeable else t for t in tables]  # share read-only ones
        size = dict(zip(cur + cur.translate(_NEXT), self.codec.sizes * 2))
        for sub, t in zip(subs, tables):  # a coordinate outside the codec takes its table's size
            size.update((c, n) for c, n in zip(sub, t.shape) if c not in size)
        if any(t.shape != tuple(size[c] for c in sub) for sub, t in zip(subs, tables)):
            raise ValueError(f"a table shape does not match its subscript in {list(subs)} on codec {labels}")
        if any((t < 0).any() for t in tables):
            raise ValueError("kernel entries must be nonnegative")
        cuts, steps = _plan(labels, subs)
        # the core's cycle, from the rows' coordinates to their next values, is
        # split after the update that holds the fewest values, the latest on a tie
        cut = min(reversed(range(len(cuts))), key=lambda i: math.prod(size[c] for c in cuts[i][0]))
        into, out_of = cuts[cut][1:]
        l = _contract(*into, tables[: cut + 1], size)
        u = _contract(*out_of, tables[cut + 1 :], size) if cut + 1 < len(tables) else np.eye(len(l))
        if max(np.abs(f.sum(axis=1) - 1.0).max() for f in (l, u)) > ROW_SUM_TOL:
            raise ValueError("every kernel row must sum to 1")
        reduced = u @ l
        for t in tables + [l, u, reduced]:
            t.setflags(write=False)
        object.__setattr__(self, "updates", tuple(zip(subs, tables)))
        object.__setattr__(self, "factors", (l, u))
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "_steps", tuple(zip(steps, tables)))

    def step(self, v: np.ndarray) -> np.ndarray:
        """v K for a vector or each row of a bank, one update at a time."""
        v = np.asarray(v)
        w = v.reshape(v.shape[:-1] + self.codec.sizes)
        for subscripts, table in self._steps:
            w = np.einsum(subscripts, w, table)
        return w.reshape(v.shape)

    def core_chain(self) -> Kernel:
        """This kernel on the coordinates its rows read, the others drawn and
        summed out: its core C R as a chain (K_z of the block sweep, K_xy of
        the rotated one), with its own codec and steps and the rest shared,
        ``_derived`` too, so nothing is checked, contracted or solved again."""
        subs, tables = zip(*self.updates)
        unread = sum(lab.lower() not in "".join(subs) for lab in self.codec.labels)  # a prefix
        codec = StateCodec(self.codec.labels[unread:], self.codec.sizes[unread:])
        chain = copy.copy(self)
        object.__setattr__(chain, "codec", codec)
        object.__setattr__(chain, "_steps", tuple(zip(_plan(codec.labels, subs)[1], tables)))
        return chain

    @property
    @_kept
    def core(self) -> np.ndarray:
        """The r x r core L U (read-only), formed only for a caller that asks."""
        core = np.matmul(*self.factors)
        core.setflags(write=False)
        return core

    @property
    @_kept
    def core_eigenvalues(self) -> np.ndarray:
        """U L's k eigenvalues (read-only). The core's are these and r - k
        zeros (Liu, Wong & Kong 1994), K's these and s - k zeros."""
        eigs = np.linalg.eigvals(self.reduced)
        eigs.setflags(write=False)
        return eigs

    @property
    @_kept
    def core_stationary(self) -> np.ndarray:
        """mu with mu core = mu and sum(mu) = 1 (read-only): nu U, normalised,
        with ((U L)^T - I) nu = 0 solved square, its last equation (redundant,
        as the equations of a row-stochastic matrix sum to zero) replaced by
        sum(nu) = 1. With a simple unit eigenvalue the system is nonsingular."""
        a = self.reduced.T - np.eye(len(self.reduced))
        a[-1] = 1.0
        mu = np.linalg.solve(a, np.eye(len(a))[-1]) @ self.factors[1]
        mu /= mu.sum()
        mu.setflags(write=False)
        return mu


@functools.cache
def _plan(labels: tuple[str, ...], subs: tuple[str, ...]) -> tuple:
    """A kernel's construction from its codec labels and update subscripts
    alone, once per sweep, strings only: after each update of its core's
    cycle, the values held and the factors L and U split there as (row
    values, einsum, values passed through on identities); its steps' einsums."""
    cur = "".join(labels).lower()
    nxt = cur.translate(_NEXT)
    named = "".join(subs)
    read = "".join(c for c in cur if c in named)
    if not cur.endswith(read) or not set(nxt) <= set(named) or not set(named) <= set(read + "abc"):
        raise ValueError(f"updates {list(subs)} must draw every coordinate of codec {labels} and read a suffix")
    order = nxt + "".join(c for c in "abc" if c not in nxt)
    later = ["".join(subs[i + 1 :]) for i in range(len(subs))]

    def held(keep: str) -> list[str]:
        # after update i, the current values a later update reads and the
        # next values drawn so far that ``keep`` names or a later update
        # reads; the einsum sums out the rest
        return ["".join(c for c in cur if c in later[i]) + "".join(
            n for n in order if n in "".join(subs[: i + 1]) and n in keep + later[i])
            for i in range(len(subs))]

    def factor(src: str, dst: str, updates: tuple) -> tuple[str, str, str]:
        # the (src values x dst values) table of running ``updates``; a value
        # both name passes through
        through = "".join(c for c in src if c in dst)
        ins = "".join(c.upper() if c in through else c for c in src)
        return src, ",".join([*updates, *(c.upper() + c for c in through)]) + f"->{ins}{dst}", through

    back = read.translate(_NEXT)
    cuts = tuple((h, factor(read, h, subs[: i + 1]), factor(h, back, subs[i + 1 :]))
                 for i, h in enumerate(held(back)))
    steps = [cur] + held(nxt)
    return cuts, tuple(f"...{h},{sub}->...{out}" for h, sub, out in zip(steps, subs, steps[1:]))


def _contract(src: str, spec: str, through: str, tables: Sequence, size: dict) -> np.ndarray:
    """A factor of ``_plan`` on ``tables``, one row per ``src`` value."""
    eyes = [np.eye(size[c]) for c in through]
    return np.einsum(spec, *tables, *eyes).reshape(math.prod(size[c] for c in src), -1)


def flatten_to_codec(pmf: JointPmf3, codec: StateCodec) -> np.ndarray:
    """Marginal of the pmf on the codec's variables, flattened to its state
    order. For a three-variable codec this is the full joint."""
    canon = sorted(codec.labels, key=AXES.index)  # the marginal's axis order
    perm = [canon.index(lab) for lab in codec.labels]
    return np.transpose(marginal(pmf, codec.labels), perm).ravel()


@functools.cache
def _subscripts(updates: tuple) -> tuple[str, tuple[str, ...]]:
    """A sweep's draw order and its updates' subscripts, strings only, once per sweep."""
    drawn, subs = "", []
    for target, given in updates:
        # a conditional table's axes are (given..., target), given in AXES order
        at = "".join(u.lower().translate(_NEXT) if u in drawn else u.lower() for u in AXES if u in given)
        subs.append(at + target.lower().translate(_NEXT))
        drawn += target
    return drawn, tuple(subs)


def _sweep_kernel(pmf: JointPmf3, updates: tuple[tuple[str, Sequence[str]], ...]) -> Kernel:
    """Kernel of the sweep that runs ``updates`` in order, each a (drawn
    coordinate, given coordinates) pair read off its conditional table at
    the freshest values. The codec is the draw order."""
    drawn, subs = _subscripts(updates)
    tables = [conditional(pmf, target, given) for target, given in updates]
    return Kernel(StateCodec.for_labels(pmf, drawn), tuple(zip(subs, tables)))


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
    return _sweep_kernel(pmf, tuple((lab, tuple(a for a in AXES if a != lab)) for lab in order))


@_kept
def block_kernel(pmf: JointPmf3) -> Kernel:
    """``STEPS``: X given z, Y given (x', z), then Z given (x', y'). It reads
    only z: nz distinct rows."""
    return _sweep_kernel(pmf, STEPS)


@_kept
def rotated_block_kernel(pmf: JointPmf3) -> Kernel:
    """``STEPS`` rotated by 2: Z given (x, y), then X given z', then Y given
    (x', z'), the block sweep's (X, Y) refresh given the new z. This is the
    one reordering of the block sweep that stays valid; it reads only
    (x, y): nx * ny distinct rows."""
    return _sweep_kernel(pmf, STEPS[2:] + STEPS[:2])


@_kept
def ooo_kernel(pmf: JointPmf3) -> Kernel:
    """Out-of-order sweep, ``STEPS`` rotated by 1: Y given (x, z), then Z
    given (x, y'), then X given z'. Splitting the (X, Y) refresh across
    iterations is what changes the invariant distribution. It never reads
    the current y: nz * nx distinct rows, one per (z, x)."""
    return _sweep_kernel(pmf, STEPS[1:] + STEPS[:1])


@_kept
def marginal_xy_kernel(pmf: JointPmf3) -> Kernel:
    """K_xy, the rotated sweep's core chain: the block sweep projected onto
    (X, Y), reversible with respect to the (X, Y)-marginal of the pmf."""
    return rotated_block_kernel(pmf).core_chain()


@_kept
def marginal_z_kernel(pmf: JointPmf3) -> Kernel:
    """K_z, the block sweep's core chain: the block sweep projected onto Z,
    reversible with respect to the Z-marginal of the pmf."""
    return block_kernel(pmf).core_chain()


@_kept
def nu_z(pmf: JointPmf3) -> np.ndarray:
    """The nz start measures pinning Z = z with X drawn from P(X | Z=z),
    row z (read-only), on the out-of-order core's codec (Z, X)."""
    nx, _, nz = pmf.dims.shape
    c_x = conditional(pmf, ("X",), ("Z",))  # (z, x)
    bank = (np.eye(nz)[:, :, None] * c_x).reshape(nz, nz * nx)  # row z: e_z (x) P(X | z)
    bank.setflags(write=False)
    return bank


@_kept
def nu_xz(pmf: JointPmf3) -> np.ndarray:
    """The nx * nz start measures pinning X = x with Y drawn from
    P(Y | X=x, Z=z), row x * nz + z (read-only), on K_xy's codec (X, Y)."""
    nx, ny, nz = pmf.dims.shape
    c_y = conditional(pmf, ("Y",), ("X", "Z"))  # (x, z, y)
    bank = (np.eye(nx)[:, None, :, None] * c_y[:, :, None]).reshape(nx * nz, nx * ny)
    bank.setflags(write=False)
    return bank
