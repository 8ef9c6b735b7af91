"""Closed-form witness of the rates and the prop1 curves, at sizes where a
random pmf would mix at once: ``permutation_pmf``, for which every slem is
a = (1 - eps)^2 / ((1 - eps) + eps/n) and every prop1 term after j >= 1
steps of its own chain is a^(j-1) times its value after one step.

Why: K_z = A B = a I + (1 - a) 1 pi_z^T, so w (A B)^(j-1) - pi_z =
a^(j-1) (w - pi_z) for any law w on z, each read is linear, and a maximum
over starts of curves with one ratio has that ratio. K_z is geometric from
its start e_z, so its column has ratio a from n = 1; the step-0 entries of
the other curves (chain 2's n = 1 row and the nu_z column's n = 1 and 2
rows) are skipped.

Rounding bounds, with u = 2^-53 and every core's U L = A B an n x n
product of sums of at most n^2 nonnegative terms:
  * a slem is an eigenvalue of the computed A B, whose rows are off by at
    most about n^2 u in l1 (Higham 2002, ch. 3), plus O(n u) of backward
    error from the eigensolver. A B is symmetric here (pi_z is uniform), so
    by Bauer-Fike an eigenvalue moves by at most the perturbation's 2-norm,
    at most sqrt(n) times its row norm: (n^2 + n) sqrt(n) u <= n^3 u;
  * a term t_n of a curve steps on that computed A B, so t_(n+1) - a t_n
    is off by at most n^3 u t_n <= n^3 u from the eigenvalue, and by the
    fresh rounding of the two terms' reads, each a product and a row sum of
    at most n^2 cells, at most 2 n^2 u per term in TV: (n^3 + 4 n^2) u.
Measured: slem gaps up to 6.8e-15 and |t_(n+1) - a t_n| up to 7.3e-15 at
n = 16, both far inside.
"""

import numpy as np
import pytest

from blockgibbs import check_prop1, check_rate_equality
from conftest import permutation_pmf

U = 2.0**-53


def non_identity_permutations(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    sigma, tau = rng.permutation(n), rng.permutation(n)
    assert (sigma != np.arange(n)).any() and (tau != np.arange(n)).any()
    return sigma, tau


@pytest.mark.parametrize("n, eps, seed", [(6, 0.05, 1), (16, 0.001, 2)])
def test_permutation_pmf_rates_and_curves_match_the_closed_form(n, eps, seed):
    pmf = permutation_pmf(n, eps, *non_identity_permutations(n, seed))
    a = (1 - eps) ** 2 / ((1 - eps) + eps / n)

    spectra = check_rate_equality(pmf).spectra
    assert len(spectra) == 5
    for name, summary in spectra.items():
        assert abs(summary.slem - a) <= n**3 * U, (name, summary.slem, a)

    report = check_prop1(pmf, nmax=40)
    assert report.verdict
    # each column from its first row past step 0: [n - 1] holds row n
    columns = [(report.chain1[:, 0], 1), (report.chain1[:, 1], 1), (report.chain1[:, 2], 3)]
    columns += [(report.chain2[:, i], 2) for i in range(3)]
    slack = (n**3 + 4 * n**2) * U
    for c, (column, first) in enumerate(columns):
        terms = column[first - 1 :]
        assert terms.min() > 0.04  # far above the rounding floor
        gap = np.abs(terms[1:] - a * terms[:-1])
        assert gap.max() <= slack, (c, gap.max(), slack)
