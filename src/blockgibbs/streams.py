"""Deterministic random substreams addressed by (iteration, step label).

A sweep reads three kinds of noise: a unit gamma under ``A``, a standard
normal under ``mu``, and one standard normal vector for all theta
coordinates under ``theta``. The noise of a label is drawn a block of
``BLOCK`` iterations at a time: block b of a label is numpy's own bulk draw
(``standard_gamma(shape, BLOCK)``, ``standard_normal(BLOCK)`` or
``standard_normal((BLOCK, m))``) from a counter-based Philox stream keyed by
(seed, b << 16 | label code), and iteration i reads row i % BLOCK of block
i // BLOCK. Each key selects an independent stream, so however many
variates one draw consumes internally (gamma generation is rejection
based), it can never shift the randomness seen by any other label or block,
and a variate is a pure function of (seed, label, iteration): a draw that
starts inside a block reads the rows of that block's draw it needs, and a
draw that ends inside one reads a prefix of it. Two samplers that read the
same iteration therefore see bit-identical noise, which upgrades
distributional identities between trajectories to exact, testable ones.
Draws are standard variates; the samplers scale them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEP_A = "A"
STEP_MU = "mu"
STEP_THETA = "theta"

#: Iterations per keyed block: one generator per label covers this many sweeps.
BLOCK = 1024

#: Step code per label. A key packs block << 16 | code into one 64-bit word,
#: which bounds the block, and so the iteration.
_STEP_CODES = {STEP_A: 0, STEP_MU: 1, STEP_THETA: 2}
_MAX_ITERATION = BLOCK << 48


@dataclass(frozen=True)
class StreamKey:
    """Address of a run of draws: the first iteration and the label."""

    iteration: int
    step: str

    def __post_init__(self) -> None:
        if not 0 <= self.iteration < _MAX_ITERATION:
            raise ValueError(f"iteration {self.iteration} out of range")
        if self.step not in _STEP_CODES:
            raise ValueError(f"unknown step label {self.step!r}")

    def code(self) -> int:
        return _STEP_CODES[self.step]


class KeyedStream:
    """Counter-based generator bank: one independent stream per label and
    block of ``BLOCK`` iterations.

    Each block a draw covers gets a fresh Philox generator keyed by
    (seed, block << 16 | step code), so a stream holds only its seed and
    its audit.

    With ``audit`` on (the default), ``consumed`` maps each step label to the
    last iteration drawn under it; samplers draw each label in increasing
    iteration order, so a draw that starts at or below its label's mark is a
    reuse and raises. A draw that raises marks nothing. A draw may start
    inside a block an earlier draw ended in.
    """

    def __init__(self, seed: int, audit: bool = True):
        self.seed = int(seed)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self.consumed: dict[str, int] | None = {} if audit else None

    def _generator(self, block: int, key: StreamKey) -> np.random.Generator:
        """The generator of one block of the key's label."""
        word = np.array([self.seed, block << 16 | key.code()], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=word))

    def _fill(self, key: StreamKey, out: np.ndarray, draw, *args) -> np.ndarray:
        """Write the variates of iterations key.iteration, key.iteration + 1,
        ... into the rows of ``out``, one generator per block; ``draw`` is the
        ``Generator`` bulk draw, called as ``draw(gen, *args, size)`` and
        ``draw(gen, *args, out=...)``."""
        first, stop = key.iteration, key.iteration + len(out)
        if not first < stop <= _MAX_ITERATION:
            raise ValueError(f"cannot draw {len(out)} rows from iteration {first}")
        if self.consumed is not None:
            mark = self.consumed.get(key.step, -1)
            if first <= mark:
                raise ValueError(
                    f"substream key {key} already consumed or out of order (mark {mark})"
                )
        width = out[:1].size  # variates per iteration
        row = first
        while row < stop:
            block, skip = divmod(row, BLOCK)
            end = min(stop, row - skip + BLOCK)
            gen = self._generator(block, key)
            if skip:  # rows of this block before the draw's first
                draw(gen, *args, skip * width)
            draw(gen, *args, out=out[row - first : end - first])
            row = end
        if self.consumed is not None:
            self.consumed[key.step] = stop - 1
        return out

    def normal(self, key: StreamKey, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the standard normals at ``key`` and after: row r
        holds iteration key.iteration + r, and a 2-D ``out`` gives each
        iteration a vector (the theta draw)."""
        return self._fill(key, out, np.random.Generator.standard_normal)

    def gamma(self, key: StreamKey, shape: float, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the unit-scale gamma(shape) variates at ``key``
        and after, one per iteration."""
        if shape <= 0:
            raise ValueError("gamma shape must be positive")
        return self._fill(key, out, np.random.Generator.standard_gamma, shape)
