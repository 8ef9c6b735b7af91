import numpy as np
import pytest
from hypothesis import settings

from blockgibbs import Dims, JointPmf3, anti_example_pmf, random_pmf, seeded_corpus

#: ``--hypothesis-profile=ci``: the same examples on every run, and no
#: per-example deadline on a shared runner.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def corpus():
    """The fixed 50-member seeded pmf corpus (dims cycle 2x2x2, 3x2x2,
    3x3x3, 4x4x4; floor 0.005; seed = index)."""
    return seeded_corpus()


@pytest.fixture()
def anti_pmf():
    """2x2x1 counterexample pmf [[0.4, 0.1], [0.1, 0.4]]."""
    return anti_example_pmf()


@pytest.fixture()
def pmf_322():
    return random_pmf(Dims(3, 2, 2), seed=7, floor=0.005)


@pytest.fixture()
def product_222():
    from blockgibbs import product_pmf

    return product_pmf([0.3, 0.7], [0.6, 0.4], [0.25, 0.75])


def stationary_by_eig(matrix: np.ndarray) -> np.ndarray:
    """Left unit-eigenvector oracle, independent of the package's square
    stationary solve."""
    evals, evecs = np.linalg.eig(matrix.T)
    v = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    return v / v.sum()


def kernel_rows(k) -> np.ndarray:
    """The kernel's r distinct rows C (r x s, read-only): states 0..r-1 read
    rows 0..r-1, so these are their one-step laws."""
    rows = k.step(np.eye(len(k.core), k.codec.size))
    rows.setflags(write=False)
    return rows


def kernel_matrix(k) -> np.ndarray:
    """The kernel as a dense s x s matrix (read-only): every state's
    one-step law."""
    m = k.step(np.eye(k.codec.size))
    m.setflags(write=False)
    return m


def permutation_pmf(n: int, eps: float, sigma: np.ndarray, tau: np.ndarray) -> JointPmf3:
    """p(x, y, z) = (1 - eps)/n 1{y = sigma(x), z = tau(x)} + eps/n^3 on
    n x n x n, for permutations sigma and tau of 0..n-1. Its K_z = A B is
    a I + (1 - a) 1 pi_z^T with a = (1 - eps)^2 / ((1 - eps) + eps/n) and
    pi_z uniform, so every kernel's slem is a and every prop1 curve is
    geometric with ratio a after one step of its chain."""
    p = np.full((n, n, n), eps / n**3)
    p[np.arange(n), sigma, tau] += (1 - eps) / n
    return JointPmf3(Dims(n, n, n), p)
