"""Floating-point witness of the rate check: the report's spectra against
numpy's eigenvalues of each kernel's dense matrix.

``check_rate_equality`` takes every spectrum from its kernel's factor pair
(``Kernel.reduced`` = U L), so K_z (A B) against K_xy (B A) compares two
floating-point products A B and ``multiset_gap`` holds by construction.
This witness goes back to the kernels' steps: ``kernel_matrix`` is each
kernel's one-step law from every state, built from ``Kernel.step`` alone,
and its full eigensolve must give the report's moduli and slems, while the
K_z / K_xy gap is taken from the two dense matrices.

The corpus splits every core at z'; three pmfs with nx * ny < nz split
them elsewhere.

Tolerances. Slems and the multiset gap use the rate check's own
``RATE_TOL``; on the corpus they agree within 4.5e-16. Moduli use
``MODULI_TOL``: the out-of-order kernel has rank(K) > rank(K^2), so its zero
eigenvalue is defective, and a dense eigensolver moves a defective
eigenvalue of a 2 x 2 Jordan block by about sqrt(machine epsilon) = 1.5e-8
times the matrix's scale (measured up to 4.3e-9 on the corpus); 1e-7 gives
that a factor of about 7. Every other modulus agrees within 2e-15.
"""

import numpy as np

from blockgibbs import Dims, check_rate_equality, random_pmf
from blockgibbs.analysis import RATE_TOL, UNIT_EIG_TOL
from conftest import kernel_matrix
from test_factored_kernels import FACTORIES, multiset_gap

MODULI_TOL = 1e-7

#: Dims with nx * ny < nz, where every sweep's core splits at (x', y') or
#: (x, y') instead of z', and the out-of-order L passes x through.
NARROW_PAIRS = ((1, 2, 5), (2, 2, 7), (3, 1, 5))


def dense_slem(eigs: np.ndarray) -> float:
    non_unit = eigs[np.abs(eigs - 1.0) > UNIT_EIG_TOL]
    return float(np.abs(non_unit).max()) if non_unit.size else 0.0


def test_report_spectra_match_the_dense_kernels(corpus):
    # fresh pmfs on every call: kernels are kept per pmf object
    for pmf in corpus + [random_pmf(Dims(*dims), seed=4, floor=1e-3) for dims in NARROW_PAIRS]:
        report = check_rate_equality(pmf)
        dense = {name: np.linalg.eigvals(kernel_matrix(factory(pmf))) for name, factory in FACTORIES.items()}
        for name, eigs in dense.items():
            summary = report.spectra[name]
            np.testing.assert_allclose(
                summary.moduli, np.sort(np.abs(eigs))[::-1], rtol=0, atol=MODULI_TOL, err_msg=name
            )
            assert abs(summary.slem - dense_slem(eigs)) <= RATE_TOL, name
        # the structural identity, from the dense matrices: K_z = A B and
        # K_xy = B A share their nonzero eigenvalues, and the out-of-order
        # sweep converges at the block sweep's rate
        k_z, k_xy = (dense[name][np.abs(dense[name]) > RATE_TOL] for name in ("marginal_z", "marginal_xy"))
        assert multiset_gap(k_z, k_xy) <= RATE_TOL
        assert abs(dense_slem(dense["ooo"]) - dense_slem(dense["block"])) <= RATE_TOL
