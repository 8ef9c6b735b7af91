"""Deterministic random substreams addressed by (iteration, step) keys.

A sweep reads three keyed draws: a unit gamma under ``A``, a standard
normal under ``mu``, and one standard normal vector for all theta
coordinates under ``theta``. Each key selects an independent counter-based
stream, so however many variates one draw consumes internally (gamma
generation is rejection based), it can never shift the randomness seen by
any other draw, and when a variate is drawn does not change its value. Two
samplers that read the same key therefore see bit-identical noise, which
upgrades distributional identities between trajectories to exact, testable
ones. Draws are standard variates; the samplers scale them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self._key = np.array([self.seed, 0], dtype=np.uint64)
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

    def normal(self, key: StreamKey, size: int | None = None):
        """Standard normal variate(s) from the substream at ``key``; with
        ``size``, one vector draw."""
        return self._bind(key).standard_normal(size)

    def gamma(self, key: StreamKey, shape: float, size: int | None = None):
        """Unit-scale gamma variate(s) from the substream at ``key``."""
        if shape <= 0:
            raise ValueError("gamma shape must be positive")
        return self._bind(key).standard_gamma(shape, size=size)
