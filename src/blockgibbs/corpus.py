"""Fixed seeded pmf corpus used by the verification suite, plus the small
hand-written counterexample where the out-of-order sweep's target is easy to
compute by hand."""

from __future__ import annotations

import numpy as np

from .finite_model import Dims, JointPmf3, random_pmf

#: Dimension mix for the seeded corpus; seeds cycle through these.
CORPUS_DIMS = ((2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 4, 4))

CORPUS_FLOOR = 0.005
CORPUS_SIZE = 50


def seeded_corpus(count: int = CORPUS_SIZE) -> list[JointPmf3]:
    """Deterministic corpus: member i has dims CORPUS_DIMS[i % 4], seed i."""
    return [
        random_pmf(Dims(*CORPUS_DIMS[i % len(CORPUS_DIMS)]), seed=i, floor=CORPUS_FLOOR)
        for i in range(count)
    ]


def anti_example_pmf() -> JointPmf3:
    """2 x 2 x 1 pmf with p(x, y) = [[0.4, 0.1], [0.1, 0.4]].

    Both single-variable marginals are uniform, so the out-of-order sweep's
    target is the uniform 0.25 table: the (X, Y) dependence is erased, at TV
    distance 0.3 from the true joint.
    """
    p = np.array([[0.4, 0.1], [0.1, 0.4]]).reshape(2, 2, 1)
    return JointPmf3(Dims(2, 2, 1), p)
