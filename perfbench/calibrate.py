"""Fixed reference loads, timed beside the operations, that say how fast the
machine runs at that moment.

The host's speed drifts: the same exact-corpus pass ran 1.7x as long in one
set of runs as in a set an hour later, and the fastest pass of the slow set
was slower than the typical pass of the fast one (NOTES.md, Measured
spread). The reference loads slow down with it. Dividing a time by the speed
factor measured beside it (``workloads.SPEED`` says which loads, and to
which power) gives reference-speed seconds, which move with the package's
own cost and much less with the machine's.

There are three loads, each shaped like some of the package's work:

- ``python``: dict and float work in the interpreter, like its per-call code;
- ``lapack``: an eigensolve and matrix products on the BLAS threads, like
  the dense checks;
- ``import``: a fresh interpreter importing numpy, like set-up.

None of them uses blockgibbs, so no change to the package changes them.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import time

#: Seconds each load takes at reference speed (a quiet 2-core Xeon KVM
#: guest, 2 BLAS threads). They only fix the scale: a factor of 1.0 means
#: reference speed, 2.0 half speed.
REFERENCE_S = {"python": 0.050, "lapack": 0.075, "import": 0.200}


@functools.cache
def _matrix():
    import numpy as np

    return np.random.default_rng(0).standard_normal((384, 384))


def _python_load() -> None:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(250_000):
        table[i & 1023] = math.sqrt(i) * 0.5
        acc += table.get((i * 7) & 1023, 1.0)


def _lapack_load() -> None:
    import numpy as np

    a = _matrix()
    np.linalg.eigvals(a)
    b = a
    for _ in range(8):
        b = (b @ a) * (1 / 384)


def _import_load() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


LOADS = {"python": _python_load, "lapack": _lapack_load, "import": _import_load}


def warm_up() -> None:
    """Start the BLAS threads and touch the pages; the first LAPACK call of
    a process takes about 1 s longer than the rest."""
    _lapack_load()


def factor(load: str) -> float:
    """Time of one ``load`` now over its reference time."""
    t = time.perf_counter()
    LOADS[load]()
    return (time.perf_counter() - t) / REFERENCE_S[load]
