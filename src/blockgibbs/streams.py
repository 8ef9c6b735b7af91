"""Deterministic random substreams addressed by (iteration, step) keys.

A sweep makes three keyed draws: ``A``, ``mu``, and one vector draw of all
theta coordinates under ``theta``. Each key selects an independent
counter-based stream, so however many variates one draw consumes internally
(gamma generation is rejection based), it can never shift the randomness
seen by any other draw. Two samplers that make "the same" draw under the
same key therefore produce bit-identical values, which upgrades
distributional identities between trajectories to exact, testable ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv

STEP_A = "A"
STEP_MU = "mu"
STEP_THETA = "theta"

#: Step code per label. A key packs iteration << 16 | code into one 64-bit
#: word, which bounds the iteration.
_STEP_CODES = {STEP_A: 0, STEP_MU: 1, STEP_THETA: 2}
_MAX_ITERATION = 1 << 48


@dataclass(frozen=True)
class StreamKey:
    """Address of one random substream: which iteration, which draw."""

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
    """Counter-based generator bank: one independent stream per StreamKey.

    A single Philox generator is reused by resetting its 128-bit key to
    (seed, iteration << 16 | step code) before each draw; this is equivalent
    to constructing a fresh generator per key but several times faster.

    With ``audit`` on (the default), ``consumed`` maps each step label to the
    last iteration drawn under it; samplers draw each label in increasing
    iteration order, so a key not above its label's mark is a reuse and raises.
    """

    def __init__(self, seed: int, audit: bool = True):
        self.seed = int(seed)
        self._key = np.array([self.seed % (1 << 64), 0], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=self._key.copy())
        self._gen = np.random.Generator(self._bitgen)
        # the state setter copies every value, so one template serves all binds
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.consumed: dict[str, int] | None = {} if audit else None

    def _bind(self, key: StreamKey) -> np.random.Generator:
        if self.consumed is not None:
            mark = self.consumed.get(key.step, -1)
            if key.iteration <= mark:
                raise ValueError(
                    f"substream key {key} already consumed or out of order (mark {mark})"
                )
            self.consumed[key.step] = key.iteration
        self._key[1] = (key.iteration << 16) | key.code()
        self._bitgen.state = self._state
        return self._gen

    def normal(self, key: StreamKey, mean, sd: float, size: int | None = None):
        """Normal variate(s) ``mean + sd * z`` from the substream at ``key``;
        with ``size``, one vector draw (``mean`` may be a vector)."""
        z = self._bind(key).standard_normal(size)
        return mean + sd * z if size is not None else float(mean + sd * z)

    def gamma(self, key: StreamKey, shape: float, size: int | None = None):
        """Unit-scale gamma variate(s) from the substream at ``key``."""
        if shape <= 0:
            raise ValueError("gamma shape must be positive")
        draw = self._bind(key).standard_gamma(shape, size=size)
        return draw if size is not None else float(draw)


class MedianStream:
    """Drop-in stream whose draws return the distribution median instead of
    a random variate (for a normal, the mean). Lets composition logic be
    checked against hand-evaluated formulas with no randomness involved."""

    def normal(self, key: StreamKey, mean, sd: float, size: int | None = None):
        return mean + np.zeros(size) if size is not None else float(mean)

    def gamma(self, key: StreamKey, shape: float, size: int | None = None):
        if shape <= 0:
            raise ValueError("gamma shape must be positive")
        med = gammainccinv(shape, 0.5)
        return np.full(size, med) if size is not None else float(med)
