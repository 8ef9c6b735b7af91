"""Mutation gate: each fault below breaks one conditional table or update
order, and at least one independent check must fail on it.

The prop1 pairs hold by construction, so ``check_prop1``'s own verdict
cannot see a broken sweep. What can is listed in ``CHECKS``: the acceptance
verdicts of ``analyze``, the dense reference of the prop1 curves (worst
cases, and per start), the exact-arithmetic oracle, the pinned violation
labels, and the rate witness. A fault is applied by monkeypatching the names the
package looks up at call time, and every check builds fresh pmfs, since
kernels and tables are kept per pmf object.

Two nu_xz rows trading places moves no worst case, and on the 3x2x2 pmf
of the pinned labels the last two never name a violation, so only the
per-start witness catches that fault. A faulty factor M of the
out-of-order core moves its spectrum and stationary solve but none of its
steps, and no prop1 curve reads it, so only the rate witness catches that
one: the acceptance pmf has nx != ny, where the fault does not exist.
K_xy shares its factor pair with the rotated sweep; a pair from a rotated
sweep on the transposed P(Z | X,Y) leaves K_xy's steps alone but moves its
spectrum and the prop1 curves read off it, so the rate witness and the
dense reference catch it, on the corpus pmfs with nx == ny.
"""

import numpy as np
import pytest

import test_analysis
import test_closed_form_witness
import test_factored_kernels
import test_prop1_reference
import test_rate_witness
import test_read_coordinates_exact
from blockgibbs import (
    Dims,
    analysis,
    analyze,
    finite_model,
    kernels,
    random_pmf,
    seeded_corpus,
)


def ooo_in_block_order(monkeypatch):
    # the block sweep's steps unrotated: X | Z, Y | (X, Z), then Z | (X, Y)
    monkeypatch.setattr(
        analysis, "ooo_kernel", lambda pmf: kernels._sweep_kernel(pmf, kernels.STEPS)
    )


def table_fault(target, given, mutate):
    """A fault that hands every caller ``mutate`` of the table of
    ``target`` given ``given``, wherever the package reads it."""

    def apply(monkeypatch):
        real = finite_model.conditional

        def faulty(pmf, t, g):
            table = real(pmf, t, g)
            return mutate(table) if (tuple(t), tuple(g)) == (target, given) else table

        for module in (finite_model, kernels, analysis):
            monkeypatch.setattr(module, "conditional", faulty)

    return apply


def perturbed(table):
    out = table.copy()
    out[(0,) * out.ndim] += 1e-9
    return out / out.sum(axis=-1, keepdims=True)


def x_and_z_swapped(table):
    # P(Y | X,Z) has axes (x, z, y); the swap keeps its shape when nx == nz,
    # and the fault exists only on such pmfs
    nx, nz, _ = table.shape
    return np.ascontiguousarray(table.transpose(1, 0, 2)) if nx == nz else table


def x_and_y_swapped(table):
    # P(Z | X,Y) has axes (x, y, z); the swap keeps its shape when nx == ny,
    # and the fault exists only on such pmfs
    nx, ny, _ = table.shape
    return np.ascontiguousarray(table.transpose(1, 0, 2)) if nx == ny else table


def ooo_m_from_transposed_z_table(monkeypatch):
    # the out-of-order sweep steps right, but its factor M[(z, x), z'] =
    # sum_y P(y | x, z) P(z' | x, y), which its spectrum and stationary
    # solve read, takes P(Z | X,Y) with x and y transposed
    steps = kernels.STEPS[1:] + kernels.STEPS[:1]

    def faulty(pmf):
        kernel = kernels._sweep_kernel(pmf, steps)
        with pytest.MonkeyPatch.context() as patch:
            table_fault(("Z",), ("X", "Y"), x_and_y_swapped)(patch)
            wrong = kernels._sweep_kernel(pmf, steps)
        for name in ("factors", "reduced"):
            object.__setattr__(kernel, name, getattr(wrong, name))
        return kernel

    monkeypatch.setattr(analysis, "ooo_kernel", faulty)


def xy_core_from_transposed_z_table(monkeypatch):
    # K_xy steps right, but the factor pair it shares with the rotated
    # sweep, which its spectrum, stationary solve and prop1 curves read,
    # comes from a rotated sweep on P(Z | X,Y) with x and y transposed
    steps = kernels.STEPS[2:] + kernels.STEPS[:2]

    def faulty(pmf):
        chain = kernels._sweep_kernel(pmf, steps).core_chain()
        with pytest.MonkeyPatch.context() as patch:
            table_fault(("Z",), ("X", "Y"), x_and_y_swapped)(patch)
            wrong = kernels._sweep_kernel(pmf, steps)
        for name in ("factors", "reduced"):
            object.__setattr__(chain, name, getattr(wrong, name))
        return chain

    monkeypatch.setattr(analysis, "marginal_xy_kernel", faulty)


def nu_xz_rows(order):
    """A fault that hands check_prop1 the nu_xz rows in ``order(count)``."""

    def apply(monkeypatch):
        real = analysis.nu_xz
        monkeypatch.setattr(analysis, "nu_xz", lambda pmf: real(pmf)[order(len(real(pmf)))])

    return apply


def last_two_swapped(count):
    return list(range(count - 2)) + [count - 1, count - 2]


FAULTS = {
    "ooo sweep in block order": ooo_in_block_order,
    "P(Y | X,Z) perturbed by 1e-9": table_fault(("Y",), ("X", "Z"), perturbed),
    "nu_xz rows reversed": nu_xz_rows(lambda count: slice(None, None, -1)),
    "last two nu_xz rows swapped": nu_xz_rows(last_two_swapped),
    "P(Y | X,Z) with x and z transposed": table_fault(("Y",), ("X", "Z"), x_and_z_swapped),
    "ooo factor M from P(Z | X,Y) with x and y transposed": ooo_m_from_transposed_z_table,
    "K_xy factors from P(Z | X,Y) with x and y transposed": xy_core_from_transposed_z_table,
}


def fails(check, *args) -> bool:
    """Whether a check raises: an assertion, or an error that stops a run."""
    try:
        check(*args)
    except (AssertionError, ValueError):
        return True
    return False


def acceptance_verdicts():
    pmf = random_pmf(Dims(3, 2, 3), seed=1601, floor=0.005)
    verdicts = analyze(pmf, nmax=20).verdicts
    assert all(verdicts.values()), verdicts


def per_start_curves():
    pmf = random_pmf(Dims(3, 2, 3), seed=1602, floor=0.005)
    with pytest.MonkeyPatch.context() as monkeypatch:  # leaves the fault's patches alone
        test_prop1_reference.assert_curves_match_per_start(monkeypatch, pmf, 20)


CHECKS = {
    "acceptance verdicts": lambda: fails(acceptance_verdicts),
    "dense reference": lambda: fails(
        test_factored_kernels.test_prop1_curves_match_reference, seeded_corpus()
    ),
    "per-start curves": lambda: fails(per_start_curves),
    "exact oracle": lambda: fails(
        test_read_coordinates_exact.test_check_prop1_matches_the_exact_chains
    ),
    "pinned labels": lambda: fails(
        test_analysis.test_prop1_negative_tol_records_every_pair,
        random_pmf(Dims(3, 2, 2), seed=7, floor=0.005),  # the pmf_322 fixture
    ),
    "rate witness": lambda: fails(test_rate_witness.test_report_spectra_match_the_dense_kernels, seeded_corpus()),
}


def test_every_check_passes_without_a_fault():
    assert [name for name, failed in CHECKS.items() if failed()] == []


@pytest.mark.parametrize("fault", list(FAULTS))
def test_every_fault_fails_a_check(monkeypatch, fault):
    FAULTS[fault](monkeypatch)
    caught = [name for name, failed in CHECKS.items() if failed()]
    print(fault, "->", caught)
    assert caught, f"{fault} survives every check"


def test_only_the_rate_witness_sees_a_faulty_ooo_factor(monkeypatch):
    FAULTS["ooo factor M from P(Z | X,Y) with x and y transposed"](monkeypatch)
    assert [name for name, failed in CHECKS.items() if failed()] == ["rate witness"]


CLOSED_FORM_CATCHES = [
    "P(Y | X,Z) perturbed by 1e-9",
    "P(Y | X,Z) with x and z transposed",
    "ooo factor M from P(Z | X,Y) with x and y transposed",
    "K_xy factors from P(Z | X,Y) with x and y transposed",
]


@pytest.mark.parametrize("n, eps, seed, catches", [
    (6, 0.05, 1, CLOSED_FORM_CATCHES),
    (16, 0.001, 2, CLOSED_FORM_CATCHES[1:]),
])
def test_the_closed_form_family_catches_the_faults_it_can_see(n, eps, seed, catches):
    """The faults the closed-form family catches, pinned per case; it stays
    out of ``CHECKS``, so the rate witness is still the only check there that
    sees a faulty ooo factor M.

    It misses three. The ooo sweep in block order leaves every slem at a,
    the block sweep's, and no prop1 curve steps ``ooo_kernel``: they are
    read off the two cores. A row permutation of the nu_xz bank moves every
    curve read from it together, so each worst case and its ratio stay. The
    1e-9 perturbation lands on the (x, z) = (0, 0) row of P(Y | X,Z), off
    the permutations' support, which holds eps / n^2 of the mass: it moved
    the slems and terms by 2.3e-13 and 2.8e-13 at n = 6, past bounds of
    2.4e-14 and 4.0e-14, but by 7.1e-15 and 7.3e-15 at n = 16, inside
    4.5e-13 and 5.7e-13.
    """
    family = test_closed_form_witness.test_permutation_pmf_rates_and_curves_match_the_closed_form
    caught = []
    for name, fault in FAULTS.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            fault(monkeypatch)
            if fails(family, n, eps, seed):
                caught.append(name)
    assert caught == catches
